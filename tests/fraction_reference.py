"""Fraction-then-round references for the extended tiers, independent of alf's kernels.

A right-hand side is evaluated in exact rational arithmetic on the tier's
inputs: the state as the tier holds it, and every exact constant of the
system (edge weights, the response's scale and roots or its coefficients,
epsilon times each forcing value) as the tier holds it, rounded once.  A
mean gauge enters exactly, its constants and the mean included, and L is
applied densely, zeros included.
`Tier.round` rounds an exact value once, to nearest with ties to even, as
mpmath's `from_rational` does.  The rk4 and dp45 steps form every stage sum
exactly and round it once, with dt/2, dt/6 and dt times each Dormand-Prince
coefficient rounded to the tier once per step.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath.libmp import from_rational, round_nearest

from alf.precision import ScalarContext

from conftest import dense_laplacian


def expand_roots(root_pairs, scale) -> tuple[Fraction, ...]:
    """The coefficients of scale * prod (x - r)^m, lowest degree first, one Fraction product per term."""
    coeffs = [Fraction(scale)]
    for r, mult in root_pairs:
        r = Fraction(r)
        for _ in range(mult):
            new = [Fraction(0)] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                new[k + 1] += c
                new[k] -= r * c
            coeffs = new
    return tuple(coeffs)


def value(v) -> Fraction:
    """The exact rational value of an mpf or of a raw `_mpf_` tuple."""
    sign, man, exp, _ = v._mpf_ if isinstance(v, mpmath.mpf) else v
    q = Fraction(int(man)) * Fraction(2) ** exp
    return -q if sign else q


_A = tuple(tuple(Fraction(a) for a in row) for row in (
    (),
    ("1/5",),
    ("3/40", "9/40"),
    ("44/45", "-56/15", "32/9"),
    ("19372/6561", "-25360/2187", "64448/6561", "-212/729"),
    ("9017/3168", "-355/33", "46732/5247", "49/176", "-5103/18656"),
    ("35/384", "0", "500/1113", "125/192", "-2187/6784", "11/84"),
))
_B5 = _A[6] + (Fraction(0),)
_B4 = tuple(Fraction(b) for b in ("5179/57600", "0", "7571/16695", "393/640", "-92097/339200",
                                  "187/2100", "1/40"))


class Tier:
    """One extended tier: its constants, its rounding and the reference right-hand sides."""

    def __init__(self, digits: int):
        self.ctx = ScalarContext(digits)
        self.prec = self.ctx.working_prec

    def const(self, q) -> Fraction:
        """The exact constant q (an int, float or Fraction) as the tier holds it: rounded once."""
        return self.round(Fraction(q))

    def raw(self, q: Fraction) -> tuple:
        """The raw tuple of q rounded once to the working precision."""
        return from_rational(q.numerator, q.denominator, self.prec, round_nearest)

    def round(self, q: Fraction) -> Fraction:
        """q rounded once to the working precision, as an exact value."""
        return value(self.raw(q))

    def poly(self, f, const=None):
        """f in the form alf evaluates it (roots when known), exact arithmetic.

        The constants are those of the tier, or those `const` gives.
        """
        const = const or self.const
        if f.roots is not None:
            scale = const(f.scale)
            roots = [(const(r), m) for r, m in f.roots]

            def factored(x):
                acc = scale
                for r, m in roots:
                    acc *= (x - r) ** m
                return acc

            return factored
        coeffs = [const(c) for c in f.coeffs]
        return lambda x: sum(c * x**k for k, c in enumerate(coeffs))

    # --- exact right-hand sides on tier values --------------------------------
    def full_rhs(self, system):
        n = system.n
        lap = [[self.const(w) for w in row] for row in dense_laplacian(system.graph)]
        forcing = [self.const(system.epsilon * h) for h in system.perturbation.values]
        f = self.poly(system.field.function)
        gauges = [self.poly(g, Fraction) for g in system.field.mean_gauges]

        def rhs(x):
            mean = sum(x, Fraction(0)) / n
            shift = sum((g(mean) for g in gauges), Fraction(0))
            fv = [f(v) + shift for v in x]
            return [-sum(lap[i][j] * fv[j] for j in range(n)) + forcing[i] for i in range(n)]

        return rhs

    def standard_rhs(self, std):
        base = std.base
        full = self.full_rhs(base)
        slow = self.const(base.epsilon * sum(base.perturbation.values))

        def rhs(y):
            x = list(y[:-1])
            x.insert(std.l - 1, y[-1] - sum(y[:-1], Fraction(0)))
            dx = full(x)
            return [dx[j - 1] for j in std.kept] + [slow]

        return rhs

    def plane_rhs(self, plane):
        n = plane.n
        f = self.poly(plane.f)
        eps_g = self.const(plane.epsilon * plane.g)
        slow = self.const(plane.epsilon * ((n - 1) * plane.g + plane.g_tilde))

        def rhs(y):
            x, k = y
            return [-(f(x) - f(k - (n - 1) * x)) + eps_g, slow]

        return rhs

    def rhs(self, system):
        kind = type(system).__name__
        if kind == "PlaneSystem":
            return self.plane_rhs(system)
        if kind == "StandardFormSystem":
            return self.standard_rhs(system)
        return self.full_rhs(system)

    # --- steps ----------------------------------------------------------------
    def rk4_step(self, rhs, y, dt):
        r = self.round
        half, sixth = r(dt / 2), r(dt / 6)
        k1 = [r(v) for v in rhs(y)]
        k2 = [r(v) for v in rhs([r(a + b * half) for a, b in zip(y, k1)])]
        k3 = [r(v) for v in rhs([r(a + b * half) for a, b in zip(y, k2)])]
        k4 = [r(v) for v in rhs([r(a + b * dt) for a, b in zip(y, k3)])]
        return [r(a + (b1 + 2 * b2 + 2 * b3 + b4) * sixth) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]

    def rk4_run(self, rhs, y, t0, t1, dt, steps: int):
        """The first `steps` + 1 states of alf's fixed-step run over (t0, t1)."""
        nsteps = max(1, round((float(t1) - float(t0)) / dt))
        h = self.round(self.const(Fraction(t1) - Fraction(t0)) / nsteps)
        states = [y]
        for _ in range(min(steps, nsteps)):
            y = self.rk4_step(rhs, y, h)
            states.append(y)
        return states

    def dp45_run(self, rhs, y, t0, t1, dt, tol: float, steps: int):
        """The first `steps` + 1 accepted states of alf's adaptive run, with its step control."""
        r = self.round
        t, t_end = self.const(t0), self.const(t1)
        h = self.const(min(dt, float(t1) - float(t0)))
        fsal = [r(v) for v in rhs(y)]
        states = [y]
        while float(t) < float(t_end) and len(states) <= steps:
            clipped = float(t) + float(h) > float(t_end)
            if clipped:
                h = r(t_end - t)
            ks = [fsal]
            for row in _A[1:]:
                coeffs = [r(h * a) for a in row]
                stage = [r(yi + sum(c * k[i] for c, k in zip(coeffs, ks))) for i, yi in enumerate(y)]
                ks.append([r(v) for v in rhs(stage)])
            coeffs = [r(h * (b5 - b4)) for b5, b4 in zip(_B5, _B4)]
            delta = [r(sum(c * k[i] for c, k in zip(coeffs, ks))) for i in range(len(y))]
            err = 0.0
            for a, d, yi in zip(stage, delta, y):
                scale = tol + tol * max(abs(float(yi)), abs(float(a)))
                err = max(err, abs(float(d)) / scale)
            if err <= 1.0:
                t = t_end if clipped else r(t + h)
                y, fsal = stage, ks[6]
                states.append(y)
            factor = min(5.0, max(0.2, 0.9 * err**-0.2 if err > 0 else 5.0))
            h = r(h * self.const(factor))
        return states
