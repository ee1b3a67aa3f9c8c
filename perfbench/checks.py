"""Independent references for alf's outputs, in exact rational arithmetic.

Nothing here calls alf: polynomials are expanded from their roots, printed
decimals are read back as exact Fractions, and every tolerance is stated
next to the quantity it bounds.  A check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path


def frac(value) -> Fraction:
    """Exact value of a JSON number or a printed decimal string."""
    return Fraction(value) if isinstance(value, (int, float)) else Fraction(str(value))


class Poly:
    """scale * prod (x - r)^m with exact coefficients, independent of alf.response."""

    def __init__(self, roots, scale=1):
        coeffs = [frac(scale)]
        for r, mult in roots:
            for _ in range(int(mult)):
                shifted = [Fraction(0)] + coeffs
                for k, c in enumerate(coeffs):
                    shifted[k] -= frac(r) * c
                coeffs = shifted
        self.coeffs = coeffs

    @classmethod
    def from_spec(cls, spec: dict) -> "Poly":
        if "family" in spec:
            lam = frac(spec["lambda"])
            if spec["family"] == "ex3a":
                return cls([(lam, 1), (-lam, 2)])
            return cls([(lam, 2), (-lam, 2)])
        return cls(spec["roots"], spec.get("scale", 1))

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        out = Poly([])
        out.coeffs = [k * c for k, c in enumerate(self.coeffs)][1:] or [Fraction(0)]
        return out


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def tier_unit(digits: int) -> Fraction:
    """Relative rounding unit of a tier: float64 for 16 digits, else 10^-digits."""
    return Fraction(1, 2**52) if digits == 16 else Fraction(1, 10**digits)


def check_slow_law(times, ks, k0, drift, digits, steps, xs_rows=None) -> list[str]:
    """k(t) = k0 + drift * t on every sample, and k = sum(x) where rows are given.

    `drift` is epsilon times the forcing sum, constant for a constant
    forcing.  The slow sum is exact up to rounding: one rounding unit of the
    tier per step on the magnitudes involved, plus one unit for printing.
    """
    unit = tier_unit(digits)
    problems = []
    for i, (t, k) in enumerate(zip(times, ks)):
        scale = 1 + abs(k) + abs(k0)
        if xs_rows is not None:
            row_abs = sum(abs(x) for x in xs_rows[i])
            scale += row_abs
            gap = abs(k - sum(xs_rows[i]))
            if gap > 4 * len(xs_rows[i]) * unit * (abs(k) + row_abs + 1):
                problems.append(f"row {i}: k={float(k)} differs from sum(x) by {float(gap):.3g}")
        gap = abs(k - (k0 + drift * t))
        if gap > 16 * (steps + 1) * unit * scale:
            problems.append(f"row {i}: k={float(k)} is {float(gap):.3g} off k0 + eps*sum(h)*t")
        if len(problems) > 3:
            break
    return problems


def check_trajectory_csv(path: Path, n: int, k0, drift, digits, steps, has_k_rows: bool) -> list[str]:
    rows = read_rows(path)
    if not rows:
        return [f"{path.name}: no rows"]
    times = [frac(r["t"]) for r in rows]
    ks = [frac(r["k"]) for r in rows]
    xs_rows = None
    if has_k_rows:
        xs_rows = [[frac(r[f"x{i}"]) for i in range(1, n + 1)] for r in rows]
    return check_slow_law(times, ks, k0, drift, digits, steps, xs_rows)


def check_critical_set(rows, f: Poly, n: int, k_range, x_range, grid, residual_tol) -> list[str]:
    """Residuals recomputed from the printed values, and one consensus root per gridline."""
    problems = []
    tol = frac(residual_tol)
    by_k: dict[float, list[float]] = {}
    for row in rows:
        k, x = frac(row["k"]), frac(row["x"])
        residual = abs(f(x) - f(k - (n - 1) * x))
        if residual > tol:
            problems.append(f"point (k={row['k']}, x={row['x']}) has residual {float(residual):.3g}")
        by_k.setdefault(float(row["k"]), []).append(float(row["x"]))
    nk = grid[0]
    k_lo, k_hi = map(float, k_range)
    x_lo, x_hi = map(float, x_range)
    for ik in range(nk):
        k = k_lo + (k_hi - k_lo) * ik / (nk - 1)
        c = k / n
        if x_lo <= c <= x_hi and not any(abs(x - c) <= 1e-9 for x in by_k.get(k, ())):
            problems.append(f"gridline k={k} lacks its consensus root {c}")
    return problems[:4]


def check_manifold(path: Path, cfg: dict) -> list[str]:
    a = cfg["analysis"]
    return check_critical_set(read_rows(path), Poly.from_spec(cfg["response"]), cfg["graph"]["n"],
                              a["k_range"], a["x_range"], a["grid"], a["residual_tol"])


def check_bifurcation(path: Path, cfg: dict) -> list[str]:
    a = cfg["analysis"]
    rows = read_rows(path)
    problems = []
    for lam in a["lambda_values"]:
        mine = [r for r in rows if float(r["lambda"]) == float(lam)]
        f = Poly.from_spec({"family": cfg["response"]["family"], "lambda": lam})
        problems += check_critical_set(mine, f, cfg["graph"]["n"], a["k_range"], a["x_range"],
                                       a["grid"], a["residual_tol"])
    return problems


def plane_forcing(cfg: dict):
    """(h, h_tilde): shared forcing of the kept nodes and of the eliminated one."""
    n = cfg["graph"]["n"]
    inner = cfg["perturbation"]["constant"]
    values = inner["values"] if "values" in inner else [inner["value"]] * n
    l = cfg["analysis"].get("eliminate", n)
    kept = [frac(v) for j, v in enumerate(values, start=1) if j != l]
    return kept[0], frac(values[l - 1])


def check_singularities(path: Path, cfg: dict) -> list[str]:
    """f'(x_s) = 0, k_s = n x_s, and the type from the sign rule; ex1 has f' zeros -1, 0, 1."""
    reports = json.loads(path.read_text(encoding="utf-8"))
    n = cfg["graph"]["n"]
    f = Poly.from_spec(cfg["response"])
    fp = f.derivative()
    fpp = fp.derivative()
    h, h_tilde = plane_forcing(cfg)
    pert_sign = _sign((n - 1) * h + h_tilde)
    lo, hi = cfg["analysis"]["x_range"]
    expected = [x for x in (-1, 0, 1) if lo <= x <= hi]
    problems = []
    found = sorted(r["x_s"] for r in reports)
    if len(found) != len(expected) or any(abs(a - b) > 1e-9 for a, b in zip(found, expected)):
        problems.append(f"singular points {found}, expected {expected}")
    for r in reports:
        x_s = frac(r["x_s"])
        if abs(fp(x_s)) > Fraction(1, 10**9):
            problems.append(f"f'({r['x_s']}) = {float(fp(x_s)):.3g}")
        if abs(frac(r["k_s"]) - n * x_s) > Fraction(1, 10**12) * max(1, abs(n * x_s)):
            problems.append(f"k_s {r['k_s']} != n * x_s")
        rho = _sign(fpp(x_s)) * pert_sign
        want = "type-1" if rho == -1 else "type-2"
        if r["type"] != want:
            problems.append(f"x_s={r['x_s']}: type {r['type']}, sign rule gives {want}")
    return problems


def divergence_reference(cfg: dict) -> Fraction:
    """-n^2 [f(k2/n) - f(k1/n)], the antiderivative form of -n * int f'(k/n) dk."""
    n = cfg["graph"]["n"]
    f = Poly.from_spec(cfg["response"])
    k1, k2 = (frac(v) for v in cfg["analysis"]["k_range"])
    return -n * n * (f(k2 / n) - f(k1 / n))


def check_divergence(path: Path, cfg: dict) -> list[str]:
    out = json.loads(path.read_text(encoding="utf-8"))
    ref = divergence_reference(cfg)
    scale = max(Fraction(1), abs(ref))
    problems = []
    # the quadrature runs at tolerance 1e-10 on a polynomial of degree four
    if abs(frac(out["integral"]) - ref) > Fraction(1, 10**8) * scale:
        problems.append(f"quadrature {out['integral']} vs reference {float(ref)}")
    if abs(frac(out["exact"]) - ref) > Fraction(1, 10**12) * scale:
        problems.append(f"closed form {out['exact']} vs reference {float(ref)}")
    return problems
