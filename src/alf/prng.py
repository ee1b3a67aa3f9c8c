"""Seeded 64-bit PRNG (splitmix64) for reproducible random draws.

Every random quantity in the package (perturbations, initial conditions,
edge weights) flows through this generator so that a recorded seed fully
determines the run, independent of platform or library version.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; identical output for identical seeds everywhere."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # top 53 bits give a float in [0, 1) with full mantissa coverage
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u
