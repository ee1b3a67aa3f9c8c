"""Float oracles for the exact analyses, independent of the code they check.

`flow_stability_probe` tags a consensus point by the signs of the layer flow
on both sides of it, without any derivative formula; `consensus_stability`
gives the same tag from the sign of f'.

`gauss_legendre_divergence` integrates the slow divergence -n f'(k/n) over
[k1, k2] with numpy's Gauss-Legendre nodes.  With m = ceil((d + 1) / 2)
nodes, d the degree of f', the rule is exact for the polynomial integrand,
so the float result differs from the closed form by rounding alone.  The
bound it returns covers that rounding: the Horner sums of f' (at most 2 d
roundings each, relative to the sum of the absolute terms), the nodes and
weights (each within a few ulps) moved through a slope of at most d times
that sum over |u|, and the m-term weighted sum, with a factor 16 to spare:
16 (2 d + m + 4) 2^-52 n (k2 - k1) / 2 sum_i w_i F(|u_i|), where F is f'
with every coefficient made positive and u_i = k_i / n.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from alf.slowfast import ATTRACTING, REPELLING, SINGULAR, PlaneSystem


def flow_stability_probe(ps: PlaneSystem, k: float, offset: float = 1e-6) -> str:
    """Brute-force stability of the consensus point at a given k.

    Looks only at the signs of the layer flow on both sides of x* = k/n,
    independent of any derivative formula.
    """
    x_star = k / ps.n
    above = -ps.layer_value(x_star + offset, k)
    below = -ps.layer_value(x_star - offset, k)
    if above < 0 < below:
        return ATTRACTING
    if below < 0 < above:
        return REPELLING
    return SINGULAR


def _horner(coeffs, u):
    acc = np.zeros_like(u)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def gauss_legendre_divergence(ps: PlaneSystem, k1: float, k2: float) -> tuple[float, float]:
    """(-n * int_{k1}^{k2} f'(k/n) dk by Gauss-Legendre in float, the bound on its rounding error)."""
    coeffs = [float(c) for c in ps.f.derivative().coeffs]
    degree = len(coeffs) - 1
    m = degree // 2 + 1  # ceil((degree + 1) / 2)
    nodes, weights = leggauss(m)
    half, mid = 0.5 * (k2 - k1), 0.5 * (k1 + k2)
    u = (mid + half * nodes) / ps.n
    value = -ps.n * half * float(np.dot(weights, _horner(coeffs, u)))
    scale = ps.n * abs(half) * float(np.dot(weights, _horner([abs(c) for c in coeffs], np.abs(u))))
    return value, 16 * (2 * degree + m + 4) * 2.0**-52 * scale
