"""Reference kernel that measures how fast the host runs Python right now.

The host's speed drifts by tens of percent over seconds and minutes as other
tenants load the machine.  Timing this fixed kernel next to a measurement
and dividing by it cancels most of that drift.  The kernel is the
benchmark's own and calls nothing in alf, so no change to alf moves it.
This module imports only the standard library, so that a fresh interpreter
can time the kernel right after timing ``import alf.cli``.
"""

import time
from fractions import Fraction

# the kernel's duration on an unloaded 2-vCPU Intel Xeon host, Python 3.11;
# setup_s is reported in seconds of that host
REFERENCE_KERNEL_S = 0.006


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel: float arithmetic, list growth, Fractions."""
    start = time.perf_counter()
    for _ in range(3):
        total, trail = 0.0, []
        for i in range(4000):
            total += (i * 0.5) ** 2 % 7.0
            trail.append(total)
        ratio = Fraction(1, 3)
        for i in range(150):
            ratio = ratio * Fraction(i + 1, i + 2) + 1
    return time.perf_counter() - start
