"""Scalar response functions and per-node response fields.

Every response is a polynomial with exact rational coefficients, so
differentiation, evenness checks and the extended tiers' single rounding
are exact; `ResponseField` refuses anything else.  A factored form (roots
with multiplicities) is kept alongside the expanded coefficients when
known, to avoid cancellation near the roots.
Each function evaluates in one form (scale and roots when known, else
Horner on the coefficients), whatever the numeric type of the argument:
- floats (numpy floats and float arrays included) run the form's loop on
  constants converted to float once (`evaluator`);
- ints and Fractions run the same loop on the exact constants
  (`rational_evaluator` on integers is the same value for the exact
  vector field);
- an mpf gets the exact value of the form, its constants rounded to the
  current precision, rounded once (`fixed_evaluator` on integers is the
  same computation for the extended-tier kernels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm
from operator import add

import mpmath
import numpy as np

from .errors import UnsupportedStructureError
from .precision import exact, round_fixed, round_ratio, signed

RESPONSE_FAMILIES = ("ex3a", "ex3b")


@dataclass(frozen=True)
class ResponseFunction:
    """Dense polynomial a0 + a1 x + ... + aN x^N with exact coefficients."""

    coeffs: tuple[Fraction, ...]
    roots: tuple[tuple[Fraction, int], ...] | None = None
    scale: Fraction = Fraction(1)
    # `_eval_mpf`'s fixed-point routine for each precision it has met
    _mpf_routines: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(exact(c) for c in self.coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "scale", exact(self.scale))
        if self.roots is not None:
            object.__setattr__(
                self, "roots", tuple((exact(r), int(m)) for r, m in self.roots)
            )

    @classmethod
    def from_coeffs(cls, coeffs) -> "ResponseFunction":
        return cls(tuple(exact(c) for c in coeffs))

    @classmethod
    def from_roots(cls, root_pairs, scale=1) -> "ResponseFunction":
        """Build scale * prod (x - r)^m, expanding the coefficients exactly."""
        coeffs = [exact(scale)]
        pairs = tuple((exact(r), int(m)) for r, m in root_pairs)
        for r, mult in pairs:
            for _ in range(mult):
                # multiply by (x - r)
                new = [Fraction(0)] * (len(coeffs) + 1)
                for k, c in enumerate(coeffs):
                    new[k + 1] += c
                    new[k] -= r * c
                coeffs = new
        return cls(tuple(coeffs), roots=pairs, scale=exact(scale))

    @classmethod
    def linear(cls) -> "ResponseFunction":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def family(cls, tag: str, lam) -> "ResponseFunction":
        """Parameterised families used by the bifurcation scenarios.

        ex3a: (x - lam) (x + lam)^2      ex3b: (x - lam)^2 (x + lam)^2
        """
        lam = exact(lam)
        if tag == "ex3a":
            return cls.from_roots(((lam, 1), (-lam, 2)))
        if tag == "ex3b":
            return cls.from_roots(((lam, 2), (-lam, 2)))
        raise ValueError(f"unknown response family {tag!r}; expected one of {RESPONSE_FAMILIES}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        """Evaluate at x (a float ndarray elementwise, to its shape) in this function's form."""
        if isinstance(x, float):
            return self.evaluator(x)
        if isinstance(x, np.ndarray) and x.dtype == float:
            return np.broadcast_to(self.evaluator(x), x.shape)
        if isinstance(x, mpmath.mpf):
            return self._eval_mpf(x)
        return self._exact_evaluator(x)

    def _eval_mpf(self, x):
        """The exact value at mpf x, with the constants rounded to the current precision, rounded once.

        A NaN or infinite x gets what mpf arithmetic on the form's loop gives.
        """
        prec = mpmath.mp.prec
        m, e = signed(x._mpf_)
        if not m and e:
            # NaN and the infinities (mantissa 0, nonzero exponent): the form's loop in mpf arithmetic
            return self._routine(lambda c: mpmath.mpf(c.numerator) / c.denominator)(x)
        values = self._mpf_routines.get(prec)
        if values is None:
            values = self._mpf_routines[prec] = self._fixed(
                lambda c: round_ratio(c.numerator, 0, c.denominator, prec))
        (v,), exp = values([m], e)
        return mpmath.mp.make_mpf(round_fixed(v, exp, prec))

    @cached_property
    def evaluator(self):
        """`eval` for Python floats and float arrays: the form's loop on float constants.

        The constants are converted once, and the loop is the one `eval`
        runs on exact constants for ints and Fractions, so the float
        operations and their order are those of the form.  The root scans
        reach it through `eval`, the plane's float right-hand side directly.
        """
        return self._routine(float)

    @cached_property
    def _exact_evaluator(self):
        return self._routine(lambda c: c)

    def _routine(self, convert):
        """The evaluation loop of this function's form, its constants converted by `convert`."""
        if self.roots is not None:
            scale = convert(self.scale)
            roots = tuple((convert(r), mult) for r, mult in self.roots)

            def evaluate(x):
                acc = scale
                for r, mult in roots:
                    factor = x - r
                    for _ in range(mult):
                        acc = acc * factor
                return acc

            return evaluate
        top, *rest = (convert(c) for c in reversed(self.coeffs))

        def evaluate_expanded(x):
            acc = top
            for c in rest:
                acc = acc * x + c
            return acc

        return evaluate_expanded

    def fixed_evaluator(self, ctx):
        """Exact evaluation on fixed-point integers, constants in the tier of ctx.

        The returned `values(xs, exp)` takes integers X_i and returns
        integers V_i and one exponent e with f(X_i * 2**exp) == V_i * 2**e
        exactly.  f is taken in the form `eval` uses (scale and roots, or
        coefficients), each constant rounded to the tier once.
        """
        return self._fixed(ctx.raw)

    def _fixed(self, raw):
        """`fixed_evaluator` with the constants converted by `raw`."""
        if self.roots is not None:
            scale, scale_exp = signed(raw(self.scale))
            roots = [(signed(raw(r)), mult) for r, mult in self.roots]
            bound = min([0] + [e for (_, e), _ in roots])
            degree = sum(mult for _, mult in roots)

            def values(xs, exp):
                if exp > bound:
                    xs = [x << (exp - bound) for x in xs]
                    exp = bound
                shifted = [(m << (e - exp), mult) for (m, e), mult in roots]
                out = []
                for x in xs:
                    acc = scale
                    for r, mult in shifted:
                        acc *= (x - r) ** mult
                    out.append(acc)
                return out, scale_exp + degree * exp

            return values
        coeffs = [signed(raw(c)) for c in self.coeffs]
        low = min(e for _, e in coeffs)
        top, *rest = [m << (e - low) for m, e in reversed(coeffs)]
        degree = len(rest)

        def values(xs, exp):
            if exp > 0:
                xs = [x << exp for x in xs]
                exp = 0
            # Horner: the coefficient k places below the top carries 2**(-k * exp)
            consts = [c << (-k * exp) for k, c in enumerate(rest, start=1)]
            out = []
            for x in xs:
                acc = top
                for c in consts:
                    acc = acc * x + c
                out.append(acc)
            return out, low + degree * exp

        return values

    @cached_property
    def rational_evaluator(self):
        """Exact evaluation at rationals on integers, constants exact.

        The returned `values(xs, d)` takes integers X_i and d > 0 and returns
        integers V_i and one denominator den > 0 with f(X_i / d) == V_i / den
        exactly.  f is taken in the form `eval` uses: the scale times the
        product over the roots, or Horner on the coefficients, each brought
        to one integer denominator; the powers of d are folded into the
        constants, as `_fixed` folds in powers of 2**exp.
        """
        if self.roots is not None:
            scale, scale_den = self.scale.numerator, self.scale.denominator
            root_den = lcm(*(r.denominator for r, _ in self.roots))
            roots = [(r.numerator * (root_den // r.denominator), mult) for r, mult in self.roots]
            degree = sum(mult for _, mult in roots)

            def values(xs, d):
                # x - r == (X root_den - R d) / (d root_den)
                shifted = [(r * d, mult) for r, mult in roots]
                out = []
                for x in xs:
                    x *= root_den
                    acc = scale
                    for r, mult in shifted:
                        acc *= (x - r) ** mult
                    out.append(acc)
                return out, scale_den * (d * root_den) ** degree

            return values
        den = lcm(*(c.denominator for c in self.coeffs))
        top, *rest = [c.numerator * (den // c.denominator) for c in reversed(self.coeffs)]
        degree = len(rest)

        def values(xs, d):
            # Horner: the coefficient k places below the top carries d**k
            consts = [c * d ** k for k, c in enumerate(rest, start=1)]
            out = []
            for x in xs:
                acc = top
                for c in consts:
                    acc = acc * x + c
                out.append(acc)
            return out, den * d ** degree

        return values

    def derivative(self, order: int = 1) -> "ResponseFunction":
        """Exact coefficient-level derivative of the given order (>= 1).

        Each derivative is built once per instance, so repeated calls return
        the same object together with its cached float evaluator.
        """
        if order < 1:
            raise ValueError("derivative order must be >= 1")
        result = self._first_derivative
        for _ in range(order - 1):
            result = result._first_derivative
        return result

    @cached_property
    def _first_derivative(self) -> "ResponseFunction":
        coeffs = self.coeffs
        if len(coeffs) == 1:
            return ResponseFunction((Fraction(0),))
        return ResponseFunction(tuple(Fraction(k) * coeffs[k] for k in range(1, len(coeffs))))

    def is_even(self) -> bool:
        """Exact invariance under x -> -x: all odd-degree coefficients vanish."""
        return all(c == 0 for c in self.coeffs[1::2])


@dataclass(frozen=True)
class ResponseField:
    """Homogeneous per-node response: every node shares one function.

    `mean_gauges` holds polynomials applied to the state mean and added to
    every component; such shifts live in the Laplacian kernel direction and
    leave the flow unchanged.
    """

    function: ResponseFunction
    mean_gauges: tuple[ResponseFunction, ...] = ()

    def __post_init__(self):
        # the kernels read exact coefficients: anything else would fail in the
        # float tier and lose the extended tiers' rounding, so refuse it here
        for part in (self.function, *self.mean_gauges):
            if not isinstance(part, ResponseFunction):
                raise UnsupportedStructureError(
                    f"responses and mean gauges must be ResponseFunction polynomials, got {type(part).__name__}"
                )

    def evaluate(self, x):
        """Componentwise response values, same arithmetic domain as x.

        Ints are read as Fractions, so the state mean a gauge reads is exact.
        """
        x = [Fraction(v) if isinstance(v, int) else v for v in x]
        out = [self.function.eval(xi) for xi in x]
        if self.mean_gauges:
            mean = reduce(add, x) / len(x)
            shift = reduce(add, (gauge.eval(mean) for gauge in self.mean_gauges))
            out = [v + shift for v in out]
        return out


def gauge_shift(field: ResponseField, h: ResponseFunction) -> ResponseField:
    """Add h(mean state) to every component of the response field."""
    return ResponseField(field.function, field.mean_gauges + (h,))
