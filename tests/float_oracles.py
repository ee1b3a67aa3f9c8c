"""Float oracles for the exact analyses, independent of the code they check.

`flow_stability_probe` tags a consensus point by the signs of the layer flow
on both sides of it, without any derivative formula; `consensus_stability`
gives the same tag from the sign of f'.

`tangent_slope_estimate` continues the crossing branch of the critical set
through a transcritical point by scalar Newton (`newton_polish`) on both
sides of it; `analyze_singularity` gives its exact slope n - 2.

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

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from alf.errors import AlfError, PreconditionError
from alf.slowfast import ATTRACTING, REPELLING, SINGULAR, PlaneSystem, SingularityReport

TANGENT_STEP = 1e-5  # the offset h from the singular point in the tangent secant


class ContinuationFailedError(AlfError):
    """Branch continuation could not locate the non-consensus root."""


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


def newton_polish(func, deriv, x0, iterations=30):
    """Newton's method on one float from x0, at most `iterations` steps.

    It keeps the current point where the derivative is 0 or not finite, or
    where the step leaves the finite floats, and takes the new point once
    the step is at most 1e-16 max(1, |x|).
    """
    x = x0
    for _ in range(iterations):
        fx = func(x)
        dx = deriv(x)
        if dx == 0.0 or not math.isfinite(dx):
            break
        step = fx / dx
        x_new = x - step
        if not math.isfinite(x_new):
            break
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            return x_new
        x = x_new
    return x


def tangent_slope_estimate(ps: PlaneSystem, report: SingularityReport) -> float:
    """Secant slope dk/dx of the crossing branch through the singular point.

    Continues the non-consensus root of the layer equation from both sides
    of the singular point: at x = x_s +/- h, h = TANGENT_STEP, the partner
    coordinate r with f(r) = f(x) is found by Newton (80 steps at most) from
    the mirrored guess 2 x_s - x, and k(x) = (n-1) x + r.  At this step the
    result should sit within 1e-3 of n - 2 for polynomial responses.
    """
    if report.sing_type not in ("type-1", "type-2"):
        raise PreconditionError("tangent continuation needs a transcritical report")
    x_s = float(report.x_s)
    f, fp = ps.f, ps.f.derivative()
    ks = []
    for x in (x_s + TANGENT_STEP, x_s - TANGENT_STEP):
        target = float(f.eval(x))
        r = newton_polish(lambda v: float(f.eval(v)) - target, lambda v: float(fp.eval(v)), 2 * x_s - x, 80)
        if abs(float(f.eval(r)) - target) > 1e-8 * (1.0 + abs(target)):
            raise ContinuationFailedError(f"no partner root found near x={x}")
        if abs(r - x) < abs(x - x_s) / 2:
            raise ContinuationFailedError(f"continuation collapsed onto the consensus root at x={x}")
        ks.append((ps.n - 1) * x + r)
    k_plus, k_minus = ks
    return (k_plus - k_minus) / (2 * TANGENT_STEP)


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
