"""Configurable working-precision scalars and vectors.

Three tiers are exposed: 16 digits (native float64) and two extended tiers
of 32 and 64 decimal digits backed by mpmath.  Extended tiers carry a few
guard digits internally so that roundoff stays below the advertised level.

Each tier has one vector type: a float ndarray on the 16-digit tier, and a
`TierVector` of mpmath's raw `_mpf_` tuples on the extended tiers, whose
scalars are mpf objects.  Exact values and the extended tiers share one
integer kernel per idea (a response, a flow): integers over one denominator
in and out, every constant exact or rounded once (`rounded`).  An extended
kernel reads the TierVector as integers over a power of two
(`vector_function`) and rounds each output component once
(`round_rationals`), to nearest with ties to even: the correctly rounded
value of its exact formula in the tier's inputs.  Only the exact constants
(weights, roots, epsilon times the forcing, step fractions) are rounded to
the tier before, once per build, per run (rk4's) or per step (dp45's).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import mpmath
import numpy as np
from mpmath.libmp import MPZ, dps_to_prec, from_int, from_man_exp, fzero, mpf_div, round_nearest, to_float

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
        """The tier's vector of `values`: a float ndarray, or a TierVector on the extended tiers."""
        if self.is_float:
            return np.array([self.scalar(v) for v in values], dtype=float)
        return TierVector([self.raw(v) for v in values], self.working_prec)

    def raw(self, value) -> tuple:
        """The `_mpf_` tuple of `scalar(value)` (extended tiers)."""
        return self.scalar(value)._mpf_

    def vector_function(self, kernel):
        """A function of extended-tier TierVectors from an integer kernel.

        `kernel(xs, d)` takes the state as integers with x_i == xs_i / d and
        returns the raw tuples of the result.  d == 2**-exp, exp at most 0 and
        the least exponent of a part's last bit at the working precision (zero
        reads -prec): d follows the state's magnitudes, not its trailing zeros,
        so consecutive states of a run mostly share it.
        """
        prec = self.working_prec

        def apply(y):
            exp = min(0, min([p[2] + p[3] for p in y.parts]) - prec)
            xs = [(-man if sign else man) << (e - exp) for sign, man, e, _ in y.parts]
            return TierVector(kernel(xs, 1 << -exp), prec)

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
    """The vector of the extended tiers: raw `_mpf_` tuples at one working precision.

    The integrators step with `combine`, which rounds each component once;
    `to_array` gives the mpf array that leaves the integrator.
    """

    __slots__ = ("parts", "prec")

    def __init__(self, parts: list, prec: int):
        self.parts = parts
        self.prec = prec

    def __len__(self) -> int:
        return len(self.parts)

    def combine(self, ks, coeffs, scale=None) -> "TierVector":
        """self + (c_1 k_1 + c_2 k_2 + ...) * scale, exact until one rounding per component.

        The k_j are TierVectors, the c_j ints or raw tuples and `scale` a raw
        tuple (None for 1).  The products c_j * scale are exact, so the
        result is the correctly rounded value of the whole expression.
        """
        sm, se = (1, 0) if scale is None else signed(scale)
        terms = [(c * sm, se) if type(c) is int else (c[1] * (-sm if c[0] else sm), c[2] + se) for c in coeffs]
        low = min(0, min([e for _, e in terms]))
        weights = [m << (e - low) for m, e in terms]
        vectors = [self.parts] + [k.parts for k in ks]
        exp = min(0, min([p[2] for parts in vectors for p in parts]))
        # the k_ji are integers at 2**exp and the weights at 2**low, so each sum is one at 2**(exp + low)
        out_exp = exp + low
        prec = self.prec
        out = [(-man if sign else man) << (e - out_exp) for sign, man, e, _ in self.parts]
        for w, parts in zip(weights, vectors[1:]):
            out = [a + w * ((-man if sign else man) << (e - exp)) for a, (sign, man, e, _) in zip(out, parts)]
        return TierVector([round_fixed(a, out_exp, prec) for a in out], prec)

    def floats(self) -> list[float]:
        """The components as `float(v_i)` gives them for mpf (round-to-nearest)."""
        return [to_float(a, rnd=round_nearest) for a in self.parts]

    def to_array(self) -> np.ndarray:
        """The components as an mpf object array."""
        return np.array([_make_mpf(a) for a in self.parts], dtype=object)


def signed(part) -> tuple[int, int]:
    """(m, e) with the raw tuple `part` equal to m * 2**e; m carries the sign."""
    sign, man, exp, _ = part
    return (-man if sign else man), exp


def round_fixed(a: int, exp: int, prec: int) -> tuple:
    """a * 2**exp rounded to prec bits, to nearest, ties to even: `from_man_exp`'s one normalized `_mpf_` tuple."""
    if not a:
        return fzero
    sign = 0
    if a < 0:
        sign, a = 1, -a
    shift = a.bit_length() - prec
    if shift > 0:
        # t keeps one bit below the last kept bit: round up above half, and at half to even
        t = a >> (shift - 1)
        exp += shift
        a = (t >> 1) + 1 if t & 1 and (t & 2 or a & ((1 << (shift - 1)) - 1)) else t >> 1
    zeros = (a & -a).bit_length() - 1
    return sign, MPZ(a >> zeros), exp + zeros, a.bit_length() - zeros


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
    return Fraction(int(m) << e) if e >= 0 else Fraction(int(m), 1 << -e)


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
