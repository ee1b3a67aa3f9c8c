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
  root scans and the plane's float layer on arrays run the same loop as
  planned in-place ufunc steps (`float_plan`), on constants that may differ
  per element.  The float flow of the full system is the one exception:
  `dynamics._horner_plan` runs Horner on the expanded coefficients, a
  factored response's included;
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
        """Build scale * prod (x - r)^m, expanding the coefficients exactly.

        With r = p/q, prod (x - r)^m is prod (q x - p)^m / prod q^m: the
        product expands in integers, and each coefficient becomes one
        Fraction at the end.
        """
        scale = exact(scale)
        pairs = tuple((exact(r), int(m)) for r, m in root_pairs)
        coeffs, den = [1], 1  # lowest degree first
        for r, mult in pairs:
            p, q = r.numerator, r.denominator
            for _ in range(mult):
                # times (q x - p): coefficient k becomes q c_{k-1} - p c_k
                coeffs = [q * a - p * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
            den *= q**mult
        num, den = scale.numerator, scale.denominator * den
        return cls(tuple(Fraction(c * num, den) for c in coeffs), roots=pairs, scale=scale)

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
        plane's float right-hand side reaches it through
        `PlaneSystem.layer_value` on its scalar state.
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


def form_shape(f: ResponseFunction) -> tuple:
    """What fixes the steps of f's float loop: a factored form's multiplicities, else the degree."""
    return ("roots", tuple(m for _, m in f.roots)) if f.roots is not None else ("coeffs", f.degree)


def horner_steps(columns) -> list:
    """Horner's loop acc = c0; acc = acc * y + c over the later coefficients c as (ufunc, operand) steps.

    columns[i] holds coefficient i, highest degree first, of each response
    evaluated together; an operand is the index of its column, or None for
    y.  The steps run on acc = y: the first allocates the result, the later
    ones work in place, and a constant has none.  Left out, with every bit
    kept: the product by a leading coefficient that is 1 in every column
    (1.0 * y is y), and the + 0.0 of a coefficient that is zero in every
    column, other than the last.  That add changes only the sign of a zero;
    the products after it keep a zero a zero (or make it NaN), and a later
    add gives both signs the same value.
    """
    top, *rest = columns
    steps = [] if all(c == 1.0 for c in top) or not rest else [(np.multiply, 0)]
    for i, column in enumerate(rest, start=1):
        if i > 1:
            steps.append((np.multiply, None))
        if any(c != 0.0 for c in column) or i == len(rest):
            steps.append((np.add, i))
    return steps


def float_plan(responses) -> tuple:
    """(evaluate, columns): the float loop that `eval` runs, for responses of one `form_shape`.

    columns[j] holds constant j of each response as its `float_constant`: a
    factored form's scale and then its roots, else the coefficients from the
    highest degree down.  evaluate(y, cs) runs the form's loop on a float
    array y, constant j read from cs[j] (a scalar, or a column broadcast
    against y), as ufunc steps in the form's order of operations, in place
    after the first, and returns a new array of y's shape.  Every element
    has the bits of `eval` at it on that element's constants.  Left out,
    with every bit kept: the coefficient form's no-op steps
    (`horner_steps`) and a factored form's product by a scale that is 1 in
    every column (1.0 * v is v).
    """
    first = responses[0]
    if first.roots is None:
        columns = [[float_constant(f.coeffs[i]) for f in responses] for i in range(first.degree, -1, -1)]
        steps = horner_steps(columns)
        if not steps:
            return (lambda y, cs: np.full(y.shape, cs[0])), columns
        (op, j), later = steps[0], steps[1:]

        def evaluate_expanded(y, cs):
            acc = op(y, y if j is None else cs[j])
            for step, i in later:
                step(acc, y if i is None else cs[i], acc)
            return acc

        return evaluate_expanded, columns
    columns = [[float_constant(f.scale) for f in responses]]
    columns += [[float_constant(f.roots[i][0]) for f in responses] for i in range(len(first.roots))]
    factors = [(i, m) for i, (_, m) in enumerate(first.roots, start=1)]
    unit_scale = all(c == 1.0 for c in columns[0])

    def evaluate_factored(y, cs):
        acc = None  # the scale, not multiplied yet
        for i, mult in factors:
            factor = np.subtract(y, cs[i])
            for _ in range(mult):
                if acc is None:
                    acc = factor if unit_scale else np.multiply(cs[0], factor)
                elif acc is factor:
                    acc = np.multiply(acc, factor)
                else:
                    np.multiply(acc, factor, acc)
        return np.full(y.shape, cs[0]) if acc is None else acc

    return evaluate_factored, columns


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
