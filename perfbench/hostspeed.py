"""Host speed, from a fixed pure-Python kernel timed next to each measurement.

The host this benchmark was built on is a shared virtual machine whose
speed for the same Python code drifts by up to 2x between ten-second
windows, so a wall time alone does not repeat from run to run.  The kernel
below does the kind of work the program does (small-int and Fraction
arithmetic, tuple keys, dict updates); C_REF is its time on that host when
quiet.  An interval scaled by C_REF / (kernel time next to it) is the time
it would have taken at that quiet speed.
"""

import statistics
import time
from fractions import Fraction

C_REF = 0.0003


def _kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        key = (i & 31, i % 7)
        table[key] = table.get(key, 0) + i * i
        if i % 8 == 0:
            acc += Fraction(i, i + 3)
    return acc


def calibrate():
    """Seconds the kernel takes now."""
    t = time.perf_counter()
    _kernel()
    return time.perf_counter() - t


def speed(samples=5):
    """C_REF over the median of a few kernel timings: multiply a raw
    interval measured just before by this to get it at reference speed."""
    return C_REF / statistics.median(calibrate() for _ in range(samples))
