"""Configurable working-precision scalars and vectors.

Three tiers are exposed: 16 digits (native float64) and two extended tiers
of 32 and 64 decimal digits backed by mpmath.  Extended tiers carry a few
guard digits internally so that roundoff stays below the advertised level.

Each tier has one vector type: a float ndarray on the 16-digit tier, and a
`TierVector` on the extended tiers, whose scalars are mpf objects.  A
TierVector is one integer frame: Python integers over one power of two,
each component a value of the working precision.  Exact values and the
extended tiers share one integer kernel per idea (a response, a flow):
integers over one denominator in and out, every constant exact or rounded
once (`rounded`).  An extended kernel reads the frame (`vector_function`)
and returns each component exactly; `TierVector.rounded` rounds each once,
to nearest with ties to even, back into the frame: the correctly rounded
value of its exact formula in the tier's inputs.  The integrators' stage
sums stay in the frame too (`TierVector.combine`).  Only the exact
constants (weights, roots, epsilon times the forcing, step fractions) are
rounded to the tier before, once per build, per run (rk4's) or per step
(dp45's); mpmath's `_mpf_` tuples appear only where a value leaves a step.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import mpmath
import numpy as np
from mpmath.libmp import MPZ, dps_to_prec, from_int, from_man_exp, fzero, mpf_div, round_nearest, to_float

from .errors import PreconditionError

PRECISION_TIERS = (16, 32, 64)

# guard digits keep accumulated roundoff under the advertised tier
_GUARD_DIGITS = 3

_make_mpf = mpmath.mp.make_mpf


@dataclass(frozen=True)
class ScalarContext:
    """Scalar factory plus formatting for one precision tier."""

    digits: int = 16

    def __post_init__(self):
        if self.digits not in PRECISION_TIERS:
            raise ValueError(f"digits must be one of {PRECISION_TIERS}, got {self.digits}")

    @property
    def is_float(self) -> bool:
        return self.digits <= 16

    @property
    def working_dps(self) -> int:
        return self.digits + _GUARD_DIGITS

    @property
    def working_prec(self) -> int:
        """Working precision in bits, as `workprec` sets it."""
        return dps_to_prec(self.working_dps)

    def workprec(self):
        """Context manager pinning the mpmath working precision (no-op for float)."""
        if self.is_float:
            return contextlib.nullcontext()
        return mpmath.workdps(self.working_dps)

    def scalar(self, value):
        """Coerce ints, floats, Fractions, strings and mpf to the tier scalar."""
        if self.is_float:
            return float(value)
        if isinstance(value, Fraction):
            return _make_mpf(round_ratio(value.numerator, 0, value.denominator, self.working_prec))
        with mpmath.workdps(self.working_dps):
            return mpmath.mpf(value)

    def vector(self, values):
        """The tier's vector of `values`: a float ndarray, or a TierVector on the extended tiers.

        A TierVector holds finite values only: a NaN or an infinity raises
        PreconditionError.
        """
        if self.is_float:
            return np.array([self.scalar(v) for v in values], dtype=float)
        scalars = [self.scalar(v) for v in values]
        for v in scalars:
            if not mpmath.isfinite(v):
                raise PreconditionError(f"the {self.digits}-digit tier holds finite values only, not {v}")
        return TierVector.of_parts([v._mpf_ for v in scalars], self.working_prec)

    def raw(self, value) -> tuple:
        """The `_mpf_` tuple of `scalar(value)` (extended tiers)."""
        return self.scalar(value)._mpf_

    def vector_function(self, kernel):
        """A function of extended-tier TierVectors from an exact integer kernel.

        `kernel(xs, d)` reads the state's frame, x_i == xs_i / d with
        d == 2**-exp (`TierVector`), and returns integers and one denominator,
        the exact components nums_i / den; each is rounded once.  d follows
        the state's magnitudes, not its trailing zeros, so consecutive states
        of a run mostly share it.
        """
        prec = self.working_prec

        def apply(y):
            nums, den = kernel(y.ints, 1 << -y.exp)
            if den & (den - 1):
                return TierVector.of_parts(round_rationals(nums, den, prec), prec)
            return TierVector.rounded(nums, 1 - den.bit_length(), prec)

        return apply

    def format(self, value) -> str:
        """Deterministic decimal string at working precision."""
        if self.is_float:
            return repr(float(value))
        with mpmath.workdps(self.working_dps):
            return mpmath.nstr(
                mpmath.mpf(value),
                self.digits,
                min_fixed=-(10**9),
                max_fixed=10**9,
                strip_zeros=True,
            )


class TierVector:
    """The vector of the extended tiers: integers over one power of two, each component a prec-bit value.

    Component i is ints[i] * 2**exp.  `exp` is the least exponent of a
    component's last bit at the working precision, a zero reading -prec,
    and at most 0: it follows the magnitudes, not the trailing zeros.  The
    integrators step with `combine`, which rounds each component once;
    `parts`, `floats` and `to_array` are the views that leave the step.
    """

    __slots__ = ("ints", "exp", "prec")

    def __init__(self, ints: list, exp: int, prec: int):
        self.ints = ints
        self.exp = exp
        self.prec = prec

    def __len__(self) -> int:
        return len(self.ints)

    @classmethod
    def rounded(cls, accs, exp: int, prec: int) -> "TierVector":
        """The vector of each a * 2**exp, a in `accs`, rounded once to prec bits, to nearest, ties to even."""
        kept = []
        low = 0
        for a in accs:
            shift = a.bit_length() - prec
            if shift > 0:
                # t keeps one bit below the last kept bit: round up above half, and at half to even;
                # on a negative a, t and the bits below it are those of the floor, so this rounds |a|
                t = a >> (shift - 1)
                a = (t >> 1) + 1 if t & 1 and (t & 2 or a & ((1 << (shift - 1)) - 1)) else t >> 1
                if a.bit_length() > prec:
                    # a carry to 2**prec
                    a >>= 1
                    shift += 1
                # a has prec bits now, so its last bit is at exp + shift
                if exp + shift < low:
                    low = exp + shift
                kept.append((a, exp + shift))
            elif a:
                if exp + shift < low:
                    low = exp + shift
                kept.append((a, exp))
            else:
                # a zero reads -prec, and sits at exponent 0, which is at least any frame's
                if low > -prec:
                    low = -prec
                kept.append((0, 0))
        return cls([a << (e - low) for a, e in kept], low, prec)

    @classmethod
    def of_parts(cls, parts, prec: int) -> "TierVector":
        """The vector of finite raw tuples of at most prec bits."""
        pairs = [signed(p) for p in parts]
        low = min([e for _, e in pairs], default=0)
        return cls.rounded([m << (e - low) for m, e in pairs], low, prec)

    def combine(self, ks, weights) -> "TierVector":
        """self + (w_1 k_1 + w_2 k_2 + ...) * 2**wexp, exact until one rounding per component.

        The k_j are TierVectors and `weights` is (w, wexp) as `combine_weights`
        builds it: the products c_j * scale of a stage, exact, so the result is
        the correctly rounded value of the whole expression.
        """
        ws, wexp = weights
        exp = self.exp
        if len(ks) == 1:
            # a stage input: one k, one weight
            (k,), (w,) = ks, ws
            low = min(exp, k.exp + wexp)
            shift, w = exp - low, w << (k.exp + wexp - low)
            return TierVector.rounded([(a << shift) + w * b for a, b in zip(self.ints, k.ints)], low, self.prec)
        low = min(exp, min([k.exp for k in ks]) + wexp)
        shift = exp - low
        acc = [a << shift for a in self.ints] if shift else self.ints
        for w, k in zip(ws, ks):
            w <<= k.exp + wexp - low
            acc = [a + w * b for a, b in zip(acc, k.ints)]
        return TierVector.rounded(acc, low, self.prec)

    @property
    def parts(self) -> list:
        """The components as normalized `_mpf_` tuples."""
        exp = self.exp
        out = []
        for a in self.ints:
            if not a:
                out.append(fzero)
                continue
            sign = 0
            if a < 0:
                sign, a = 1, -a
            zeros = (a & -a).bit_length() - 1
            a >>= zeros
            out.append((sign, MPZ(a), exp + zeros, a.bit_length()))
        return out

    def floats(self) -> list[float]:
        """The components as `float(v_i)` gives them for mpf (round-to-nearest)."""
        return [to_float(a, rnd=round_nearest) for a in self.parts]

    def to_array(self) -> np.ndarray:
        """The components as an mpf object array."""
        return np.array([_make_mpf(a) for a in self.parts], dtype=object)


def combine_weights(terms) -> tuple[list[int], int]:
    """The (m, e) pairs, each m * 2**e, as integers over one power of two: `TierVector.combine`'s weights."""
    low = min(e for _, e in terms)
    return [m << (e - low) for m, e in terms], low


def signed(part) -> tuple[int, int]:
    """(m, e) with the raw tuple `part` equal to m * 2**e; m is a Python int carrying the sign."""
    sign, man, exp, _ = part
    return (-int(man) if sign else int(man)), exp


def round_fixed(a: int, exp: int, prec: int) -> tuple:
    """a * 2**exp rounded to prec bits, to nearest, ties to even: `from_man_exp`'s one normalized `_mpf_` tuple.

    The scalar view of `TierVector.rounded`.
    """
    return TierVector.rounded([a], exp, prec).parts[0]


def round_ratio(num: int, exp: int, den: int, prec: int) -> tuple:
    """num * 2**exp / den rounded once to prec bits, to nearest with ties to even."""
    return mpf_div(from_man_exp(num, exp), from_int(den), prec, round_nearest)


def round_rationals(nums, den: int, prec: int) -> list:
    """The raw tuples of each num / den rounded once to prec bits: `round_fixed` for a power-of-two den."""
    if den & (den - 1):
        return [round_ratio(v, 0, den, prec) for v in nums]
    exp = 1 - den.bit_length()
    return [round_fixed(v, exp, prec) for v in nums]


def common_denominator(qs) -> tuple[list[int], int]:
    """Integers N_i and one D > 0, the lcm of the denominators, with q_i == N_i / D for the rationals q_i."""
    den = lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


def dyadic(part) -> Fraction:
    """The exact value of a finite raw `_mpf_` tuple."""
    m, e = signed(part)
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def rounded(q: Fraction, prec: int | None) -> Fraction:
    """q rounded once to prec bits, to nearest with ties to even, as an exact value; q itself for prec None."""
    return q if prec is None else dyadic(round_ratio(q.numerator, 0, q.denominator, prec))


def exact(value) -> Fraction:
    """Exact rational view of an int, float, string or Fraction.

    Floats are dyadic rationals, so the conversion is lossless.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    return Fraction(str(value))
