"""Scalar response functions (polynomials) and per-node response fields.

Coefficients are exact rationals so differentiation and evenness checks are
exact; evaluation follows the numeric type of the argument (float, mpf or
Fraction).  A factored form (roots with multiplicities) is kept alongside
the expanded coefficients when known, to avoid cancellation near the roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath
from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul, mpf_sub, round_nearest

from .errors import UnsupportedStructureError
from .precision import ScalarContext, exact

RESPONSE_FAMILIES = ("ex3a", "ex3b")


def _coerce(coeff: Fraction, like):
    """Bring an exact coefficient into the arithmetic domain of `like`."""
    if isinstance(like, (int, Fraction)):
        return coeff
    if isinstance(like, mpmath.mpf):
        return mpmath.mpf(coeff.numerator) / mpmath.mpf(coeff.denominator)
    return float(coeff)


@dataclass(frozen=True)
class ResponseFunction:
    """Dense polynomial a0 + a1 x + ... + aN x^N with exact coefficients."""

    coeffs: tuple[Fraction, ...]
    roots: tuple[tuple[Fraction, int], ...] | None = None
    scale: Fraction = Fraction(1)

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
        """Evaluate at x, preferring the factored form when available."""
        if type(x) is float:
            return self._float_evaluator(x)
        if self.roots is not None:
            acc = _coerce(self.scale, x)
            for r, mult in self.roots:
                factor = x - _coerce(r, x)
                for _ in range(mult):
                    acc = acc * factor
            return acc
        return self.eval_expanded(x)

    def eval_expanded(self, x):
        """Horner evaluation of the dense coefficient form."""
        acc = _coerce(self.coeffs[-1], x)
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + _coerce(c, x)
        return acc

    @cached_property
    def _float_evaluator(self):
        """`eval` for Python floats; the float scans call it on every point."""
        return self.evaluator(ScalarContext(16))

    def evaluator(self, ctx):
        """`eval` for scalars of the tier `ctx`, with the constants converted once.

        The returned function applies the operations of `eval` in the same
        order, so under `ctx.workprec()` it returns the same value bit for bit.
        The extended tiers take and return mpf around `raw_evaluator`.
        """
        if not ctx.is_float:
            raw = self.raw_evaluator(ctx)
            return lambda x: mpmath.mp.make_mpf(raw(x._mpf_))
        if self.roots is not None:
            scale = ctx.scalar(self.scale)
            roots = tuple((ctx.scalar(r), mult) for r, mult in self.roots)

            def evaluate(x):
                acc = scale
                for r, mult in roots:
                    factor = x - r
                    for _ in range(mult):
                        acc = acc * factor
                return acc

            return evaluate
        top, *rest = (ctx.scalar(c) for c in reversed(self.coeffs))

        def evaluate_expanded(x):
            acc = top
            for c in rest:
                acc = acc * x + c
            return acc

        return evaluate_expanded

    def raw_evaluator(self, ctx):
        """`evaluator` of an extended tier on raw `_mpf_` tuples: the same operations."""
        prec = ctx.working_prec
        if self.roots is not None:
            scale = ctx.raw(self.scale)
            roots = tuple((ctx.raw(r), mult) for r, mult in self.roots)

            def evaluate(x):
                acc = scale
                for r, mult in roots:
                    factor = mpf_sub(x, r, prec, round_nearest)
                    for _ in range(mult):
                        acc = mpf_mul(acc, factor, prec, round_nearest)
                return acc

            return evaluate
        top, *rest = (ctx.raw(c) for c in reversed(self.coeffs))

        def evaluate_expanded(x):
            acc = top
            for c in rest:
                acc = mpf_add(mpf_mul(acc, x, prec, round_nearest), c, prec, round_nearest)
            return acc

        return evaluate_expanded

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


class CallbackResponse:
    """Adapter for non-polynomial scalar responses.

    Supports evaluation only, which is all simulation needs; the singularity
    analysis requires exact derivatives and refuses these.
    """

    def __init__(self, func, label: str = "callback"):
        self._func = func
        self.label = label

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        return self._func(x)

    def evaluator(self, ctx):
        return self._func

    def raw_evaluator(self, ctx):
        func = self._func
        return lambda x: ctx.raw(func(mpmath.mp.make_mpf(x)))

    def derivative(self, order: int = 1):
        raise UnsupportedStructureError(
            "exact derivatives need a polynomial response; callback responses are simulation-only"
        )

    def is_even(self) -> bool:
        raise UnsupportedStructureError(
            "symmetry detection needs a polynomial response; callback responses are simulation-only"
        )


@dataclass(frozen=True)
class ResponseField:
    """Homogeneous per-node response: every node shares one function.

    `mean_gauges` holds polynomials applied to the state mean and added to
    every component; such shifts live in the Laplacian kernel direction and
    leave the flow unchanged.
    """

    function: ResponseFunction
    mean_gauges: tuple[ResponseFunction, ...] = ()

    def evaluate(self, x):
        """Componentwise response values, same arithmetic domain as x.

        Ints are read as Fractions, so the state mean a gauge reads is exact.
        """
        x = [Fraction(v) if isinstance(v, int) else v for v in x]
        return _field_values(x, self.function.eval, [g.eval for g in self.mean_gauges])

    def evaluator(self, ctx):
        """`evaluate` for vectors of `ctx` scalars, with the constants converted once."""
        if not ctx.is_float:
            return ctx.vector_function(self.raw_evaluator(ctx))
        function = self.function.evaluator(ctx)
        gauges = [g.evaluator(ctx) for g in self.mean_gauges]
        return lambda x: _field_values(x, function, gauges)

    def raw_evaluator(self, ctx):
        """`evaluator` of an extended tier on lists of raw `_mpf_` tuples: the same operations."""
        function = self.function.raw_evaluator(ctx)
        if not self.mean_gauges:
            return lambda x: [function(xi) for xi in x]
        gauges = [g.raw_evaluator(ctx) for g in self.mean_gauges]
        prec = ctx.working_prec

        def evaluate(x):
            out = [function(xi) for xi in x]
            total = x[0]
            for xi in x[1:]:
                total = mpf_add(total, xi, prec, round_nearest)
            mean = mpf_div(total, from_int(len(x)), prec, round_nearest)
            shift = None
            for gauge in gauges:
                val = gauge(mean)
                shift = val if shift is None else mpf_add(shift, val, prec, round_nearest)
            return [mpf_add(v, shift, prec, round_nearest) for v in out]

        return evaluate


def _field_values(x, function, gauges):
    out = [function(xi) for xi in x]
    if gauges:
        total = x[0]
        for xi in x[1:]:
            total = total + xi
        mean = total / len(x)
        shift = None
        for gauge in gauges:
            val = gauge(mean)
            shift = val if shift is None else shift + val
        out = [v + shift for v in out]
    return out


def gauge_shift(field: ResponseField, h: ResponseFunction) -> ResponseField:
    """Add h(mean state) to every component of the response field."""
    return ResponseField(field.function, field.mean_gauges + (h,))
