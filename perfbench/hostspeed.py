"""Host-speed calibration: a fixed pure-Python kernel timed next to the
work it calibrates.

The benchmark's host is a shared VM whose speed drifts by up to half
over minutes while CPU time stays equal to wall time, so raw wall times
of the same code differ between runs far more than a regression bound.
The kernel below does the kind of work the interpreter does for the
program (object creation, attribute and dict access, list append, sort),
uses nothing from ``repro``, and runs with the collector off, so a change
to the program cannot change its time; only the host can.  Dividing a
span by the kernel times measured right before and after it, and
multiplying by ``REFERENCE_S``, gives the span in seconds at the
reference host speed.
"""

import gc
from time import perf_counter

#: median kernel seconds on the reference host (2-vCPU Xeon VM,
#: Python 3.11), so that rescaled times read as seconds on that host
REFERENCE_S = 0.00039
#: kernel size: about 0.4 ms on the reference host
_ITEMS = 1000


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def kernel_seconds() -> float:
    """Seconds of one kernel run."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    table = {}
    mixed = []
    for i in range(_ITEMS):
        point = _Point(i, i * 3 % 17)
        key = point.x & 255
        table[key] = table.get(key, 0) + point.y
        mixed.append(point.x ^ point.y)
    mixed.sort()
    seconds = perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


def median_kernel_seconds(runs: int = 9) -> float:
    """Median of ``runs`` back-to-back kernel runs."""
    samples = sorted(kernel_seconds() for _ in range(runs))
    return samples[runs // 2]


def rescale(seconds: float, kernel_before: float, kernel_after: float
            ) -> float:
    """``seconds`` at the reference host speed, given kernel times taken
    right before and right after the span."""
    return seconds * 2 * REFERENCE_S / (kernel_before + kernel_after)
