"""Configurable working-precision scalars.

Three tiers are exposed: 16 digits (native float64) and two extended tiers
of 32 and 64 decimal digits backed by mpmath.  Extended tiers carry a few
guard digits internally so that roundoff stays below the advertised level.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

PRECISION_TIERS = (16, 32, 64)

# guard digits keep accumulated roundoff under the advertised tier
_GUARD_DIGITS = 3


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

    def workprec(self):
        """Context manager pinning the mpmath working precision (no-op for float)."""
        if self.is_float:
            return contextlib.nullcontext()
        return mpmath.workdps(self.working_dps)

    def scalar(self, value):
        """Coerce ints, floats, Fractions, strings and mpf to the tier scalar."""
        if self.is_float:
            return float(value)
        with mpmath.workdps(self.working_dps):
            if isinstance(value, Fraction):
                return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
            return mpmath.mpf(value)

    def vector(self, values) -> np.ndarray:
        vals = [self.scalar(v) for v in values]
        if self.is_float:
            return np.array(vals, dtype=float)
        return np.array(vals, dtype=object)

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
