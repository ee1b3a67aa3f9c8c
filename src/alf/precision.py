"""Configurable working-precision scalars and vectors.

Three tiers are exposed: 16 digits (native float64) and two extended tiers
of 32 and 64 decimal digits backed by mpmath.  Extended tiers carry a few
guard digits internally so that roundoff stays below the advertised level.

mpmath is imported on first use, not with alf: the 16-digit tier and the
exact analyses never meet an mpf.  Every mpmath name alf calls is an
attribute of `lazy_mpmath`, bound on the first read of any of them, and
`is_mpf` tests a value's type without importing anything.

Each tier has one vector type: a float ndarray on the 16-digit tier, and an
integer frame on the extended tiers, `(ints, exp)`: Python integers over one
power of two, each component ints_i * 2**exp a value of the working
precision.  Exact values and the extended tiers share one integer kernel per
idea (a response, a flow): integers over one denominator in and out, every
constant exact or rounded once (`rounded`).  On the extended tiers a
right-hand side is a frame function, frame in and frame out: the exact
kernel, then inside the same function `round_rationals`, the one rounding of
a rational result, which rounds each component once, to nearest with ties to
even, back into a frame (`round_frame` over a power of two), so each is the
correctly rounded value of its exact formula in the tier's inputs.  The
integrators' stage sums stay on the frame too, one exact sum per component,
rounded once.  Only the exact constants (weights, roots, epsilon times the
forcing, step fractions) are rounded to the tier before, once per build, per
run (rk4's) or per step (dp45's).  A state leaves a step as an mpf array
(`frame_array`) where it is recorded, and as floats (`frame_floats`) where the
divergence test, a stop condition or an error norm reads it.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import PreconditionError

PRECISION_TIERS = (16, 32, 64)

# guard digits keep accumulated roundoff under the advertised tier
_GUARD_DIGITS = 3


class _LazyMpmath:
    """The mpmath and libmp names alf calls, imported and bound on the first read of any of them.

    Later reads are plain attribute lookups: no import runs on a per-step
    path.  mpmath picks its backend when it is imported, here as anywhere.
    """

    def __getattr__(self, name: str):
        import mpmath
        from mpmath import libmp

        vars(self).update(
            mp=mpmath.mp, mpf=mpmath.mpf, make_mpf=mpmath.mp.make_mpf, isfinite=mpmath.isfinite,
            nstr=mpmath.nstr, workdps=mpmath.workdps, MPZ=libmp.MPZ, fzero=libmp.fzero,
            dps_to_prec=libmp.dps_to_prec, from_int=libmp.from_int, from_man_exp=libmp.from_man_exp,
            mpf_add=libmp.mpf_add, mpf_div=libmp.mpf_div, mpf_mul_int=libmp.mpf_mul_int,
            round_nearest=libmp.round_nearest, to_float=libmp.to_float, to_str=libmp.to_str,
        )
        return object.__getattribute__(self, name)


lazy_mpmath = _LazyMpmath()


def is_mpf(value) -> bool:
    """True for an mpmath mpf; no value is one before mpmath is loaded, so this loads nothing."""
    mpmath = sys.modules.get("mpmath")
    return mpmath is not None and isinstance(value, mpmath.mpf)


@dataclass(frozen=True)
class ScalarContext:
    """Scalar factory plus formatting for one precision tier."""

    digits: int = 16

    def __post_init__(self):
        if self.digits not in PRECISION_TIERS:
            raise PreconditionError(f"digits must be one of {PRECISION_TIERS}, got {self.digits}")

    @property
    def is_float(self) -> bool:
        return self.digits <= 16

    @property
    def working_dps(self) -> int:
        return self.digits + _GUARD_DIGITS

    @property
    def working_prec(self) -> int:
        """Working precision in bits, as `workprec` sets it."""
        return lazy_mpmath.dps_to_prec(self.working_dps)

    def workprec(self):
        """Context manager pinning the mpmath working precision (no-op for float)."""
        if self.is_float:
            return contextlib.nullcontext()
        return lazy_mpmath.workdps(self.working_dps)

    def scalar(self, value):
        """Coerce ints, floats, Fractions, strings and mpf to the tier scalar."""
        if self.is_float:
            return float(value)
        if isinstance(value, Fraction):
            return lazy_mpmath.make_mpf(round_ratio(value.numerator, 0, value.denominator, self.working_prec))
        with lazy_mpmath.workdps(self.working_dps):
            return lazy_mpmath.mpf(value)

    def vector(self, values):
        """The tier's vector of `values`: a float ndarray, or a frame (ints, exp) on the extended tiers.

        A frame holds finite values only: a NaN or an infinity raises
        PreconditionError.
        """
        if self.is_float:
            return np.array([self.scalar(v) for v in values], dtype=float)
        scalars = [self.scalar(v) for v in values]
        for v in scalars:
            if not lazy_mpmath.isfinite(v):
                raise PreconditionError(f"the {self.digits}-digit tier holds finite values only, not {v}")
        return round_rationals(*common_denominator([dyadic(v._mpf_) for v in scalars]), self.working_prec)

    def format(self, value) -> str:
        """Deterministic decimal string at working precision: `nstr`'s, by `to_str`, the call `nstr` ends in.

        An mpf of at most `working_prec` bits is printed from its tuple; any
        other value is first made an mpf at the working precision.
        """
        if self.is_float:
            return repr(float(value))
        if not (is_mpf(value) and value._mpf_[3] <= self.working_prec):
            with lazy_mpmath.workdps(self.working_dps):
                value = lazy_mpmath.mpf(value)
        return lazy_mpmath.to_str(value._mpf_, self.digits, min_fixed=-(10**9), max_fixed=10**9, strip_zeros=True)


def round_frame(accs, exp: int, prec: int) -> tuple[list[int], int]:
    """The frame (ints, exp) of each a * 2**exp, a in `accs`, rounded once to prec bits, to nearest, ties to even.

    Component i of a frame (ints, exp) is ints[i] * 2**exp.  The frame's
    exponent is the least exponent of a component's last bit at prec bits,
    a zero reading -prec, and at most 0: it follows the magnitudes, not the
    trailing zeros, so the output frame depends only on the rounded values.
    """
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
    return [a << (e - low) for a, e in kept], low


def _part(a: int, exp: int) -> tuple:
    """a * 2**exp as a normalized `_mpf_` tuple."""
    if not a:
        return lazy_mpmath.fzero
    sign = 0
    if a < 0:
        sign, a = 1, -a
    zeros = (a & -a).bit_length() - 1
    a >>= zeros
    return sign, lazy_mpmath.MPZ(a), exp + zeros, a.bit_length()


def frame_floats(frame) -> list[float]:
    """The components of a frame as `float()` reads their mpfs: rounded to 53 bits, to nearest, ties to even.

    Where the value lies in [2**-1022, 2**1023), a normal float, int / int
    is that one correctly rounded division.  The rest (subnormals, values
    at the overflow end, a zero in a frame below 2**-1021) go through
    `to_float`, which rounds a subnormal to 53 bits and then again to its
    own bits, as mpmath does.
    """
    ints, exp = frame
    d = 1 << -exp
    return [a / d if -1021 <= a.bit_length() + exp <= 1023
            else lazy_mpmath.to_float(_part(a, exp), rnd=lazy_mpmath.round_nearest) for a in ints]


def frame_array(frame) -> np.ndarray:
    """The components of a frame as an mpf object array, each a normalized `_mpf_` tuple."""
    ints, exp = frame
    make = lazy_mpmath.make_mpf
    return np.array([make(_part(a, exp)) for a in ints], dtype=object)


def signed(part) -> tuple[int, int]:
    """(m, e) with the raw tuple `part` equal to m * 2**e; m is a Python int carrying the sign."""
    sign, man, exp, _ = part
    return (-int(man) if sign else int(man)), exp


def round_ratio(num: int, exp: int, den: int, prec: int) -> tuple:
    """num * 2**exp / den rounded once to prec bits, to nearest with ties to even."""
    lib = lazy_mpmath
    return lib.mpf_div(lib.from_man_exp(num, exp), lib.from_int(den), prec, lib.round_nearest)


def round_rationals(nums, den: int, prec: int) -> tuple[list[int], int]:
    """The frame of each num / den rounded once to prec bits: `round_frame` for a power-of-two den."""
    if den & (den - 1):
        # each ratio rounded alone, then the values, of at most prec bits, put over one power of two
        pairs = [signed(round_ratio(v, 0, den, prec)) for v in nums]
        low = min([e for _, e in pairs], default=0)
        return round_frame([m << (e - low) for m, e in pairs], low, prec)
    return round_frame(nums, 1 - den.bit_length(), prec)


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
