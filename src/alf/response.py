"""Scalar response functions and per-node response fields.

Every response is a polynomial with exact rational coefficients, so
differentiation, evenness checks and the extended tiers' single rounding
are exact; `ResponseField` refuses anything else.  A factored form (roots
with multiplicities) is kept alongside the expanded coefficients when
known, to avoid cancellation near the roots.
Floats evaluate in the function's form (scale and roots when known, else
Horner on the coefficients); exact values are form-free:
- floats (numpy floats and float arrays included) run the form's loop on
  constants converted to float once (`evaluator`, `float_constant`).  The
  float flow of the full system is the one exception: `dynamics._horner_plan`
  runs Horner on the expanded coefficients, a factored response's included;
- everything else runs one integer routine (`integer_evaluator`), Horner
  on integers over one denominator in and out, on the exact coefficients
  of the form's constants: exact for ints and Fractions, whose value is
  exact, or rounded once to a precision (a factored form's scale and roots)
  for the extended-tier kernels and `eval` of a finite mpf, which round
  each value once.  An mpf NaN or infinity runs the form's loop in mpf
  arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import PreconditionError, UnsupportedStructureError
from .precision import common_denominator, dyadic, exact, frame_array, is_mpf, lazy_mpmath, round_rationals, rounded

RESPONSE_FAMILIES = ("ex3a", "ex3b")


def float_constant(c: Fraction) -> float:
    """The exact constant c of a response as the float the float tier computes with.

    A constant outside float64's range has no such float: it raises
    PreconditionError naming it, before any float arithmetic could
    overflow on it.
    """
    try:
        return float(c)
    except OverflowError:
        raise PreconditionError(
            f"response constant {lazy_mpmath.nstr(lazy_mpmath.mpf(c.numerator) / c.denominator, 6)} "
            "is outside the float tier's range"
        ) from None


@dataclass(frozen=True)
class ResponseFunction:
    """Dense polynomial a0 + a1 x + ... + aN x^N with exact coefficients."""

    coeffs: tuple[Fraction, ...]
    roots: tuple[tuple[Fraction, int], ...] | None = None
    scale: Fraction = Fraction(1)
    # `integer_evaluator`'s routine for each precision it has met (None: exact constants)
    _integer_routines: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        raise PreconditionError(f"unknown response family {tag!r}; expected one of {RESPONSE_FAMILIES}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, x):
        """Evaluate at x (a float ndarray elementwise, to its shape) in this function's form."""
        if isinstance(x, float):
            return self.evaluator(x)
        if isinstance(x, np.ndarray) and x.dtype == float:
            value = self.evaluator(x)
            # a float for a constant, a numpy scalar for a 0-d x, else already an array of x's shape
            return value if type(value) is np.ndarray else np.full(x.shape, value)
        if is_mpf(x):
            return self._eval_mpf(x)
        q = Fraction(x)
        (value,), den = self.integer_evaluator()([q.numerator], q.denominator)
        return Fraction(value, den)

    def _eval_mpf(self, x):
        """The exact value at mpf x, with the constants rounded to the current precision, rounded once.

        A NaN or infinite x gets what mpf arithmetic on the form's loop gives.
        """
        if not lazy_mpmath.isfinite(x):
            # NaN and the infinities: the form's loop in mpf arithmetic
            return self._routine(lambda c: lazy_mpmath.mpf(c.numerator) / c.denominator)(x)
        prec, q = lazy_mpmath.mp.prec, dyadic(x._mpf_)
        values, den = self.integer_evaluator(prec)([q.numerator], q.denominator)
        return frame_array(round_rationals(values, den, prec))[0]

    @cached_property
    def evaluator(self):
        """`eval` for Python floats and float arrays: the form's loop on float constants.

        The constants are converted once, and the loop is the form's, so
        the float operations and their order are those of the form.  The
        root scans and the plane's float right-hand side (through
        `PlaneSystem.layer_value`) reach it through `eval`.
        """
        return self._routine(float_constant)

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

    def integer_evaluator(self, prec=None):
        """Exact evaluation at rationals on integers, built once per precision.

        The returned `values(xs, d)` takes integers X_i and d > 0 and returns
        integers V_i and one denominator den > 0 with f(X_i / d) == V_i / den
        exactly, by Horner on the exact coefficients of the form `eval` uses,
        its constants exact (prec None) or each rounded once to prec bits
        (`rounded`): a factored form's scale and roots, expanded exactly
        after the rounding, else the coefficients.  An exact value is the
        form's loop's on the same constants.  The extended tiers, with d a
        power of two, get a power of two for den.
        """
        if prec in self._integer_routines:
            return self._integer_routines[prec]
        if prec is None or self.roots is None:
            coeffs = [rounded(c, prec) for c in self.coeffs]
        else:
            coeffs = self.from_roots([(rounded(r, prec), m) for r, m in self.roots], rounded(self.scale, prec)).coeffs
        (top, *rest), den = common_denominator(coeffs[::-1])

        # kept for the last d: the states of an extended-tier run mostly share one (`round_frame`)
        @lru_cache(maxsize=1)
        def terms(d):
            # Horner: the coefficient k places below the top carries d**k
            return [c * d**k for k, c in enumerate(rest, start=1)], den * d ** len(rest)

        def values(xs, d):
            consts, out_den = terms(d)
            out = []
            for x in xs:
                acc = top
                for c in consts:
                    acc = acc * x + c
                out.append(acc)
            return out, out_den

        self._integer_routines[prec] = values
        return values

    def derivative(self, order: int = 1) -> "ResponseFunction":
        """Exact coefficient-level derivative of the given order (>= 1).

        Each derivative is built once per instance, so repeated calls return
        the same object together with its cached float evaluator.
        """
        if order < 1:
            raise PreconditionError("derivative order must be >= 1")
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


def gauge_shift(field: ResponseField, h: ResponseFunction) -> ResponseField:
    """Add h(mean state) to every component of the response field."""
    return ResponseField(field.function, field.mean_gauges + (h,))
