"""Host-speed calibration for the benchmark.

On a shared host the speed of pure-Python code drifts by +-40% within a
minute (CPU time tracks wall time, so the drift is the processor, not the
scheduler).  `HostSpeed` times a fixed unit of pure-Python Fraction work
between ops, once EVERY_S seconds have passed since the last sample, with
the cyclic collector paused.  A time measured at moment t is rescaled by
REF_S / (the unit's duration around t), which expresses it at the
reference speed.  The unit never calls linfweak, so a change to the
package moves the rescaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# duration of one unit at the reference speed: the median measured on the
# 2-core box of the baseline (bench/README.md)
REF_S = 0.008
# least gap between two samples; the unit then takes at most 8% of a run
EVERY_S = 0.1
# samples this close to an op also estimate the speed during it
WINDOW_S = 0.5


def unit() -> Fraction:
    """Fixed work in the style of the package's kernels: Fraction arithmetic,
    comparisons against float infinity, tuples and a sort."""
    acc = Fraction(0)
    rows = []
    for i in range(1, 400):
        x = Fraction(i % 17 + 1, i % 11 + 2)
        acc += x * Fraction(3, i % 5 + 1) - Fraction(1, i)
        if acc > 50 or acc < float("-inf"):
            acc = Fraction(1, i)
        rows.append((x, acc.denominator % 7, i))
    rows.sort()
    return acc + rows[0][0]


class HostSpeed:
    def __init__(self):
        self.times: list[float] = []      # midpoints of the samples
        self.durations: list[float] = []
        self._next = 0.0

    def sample(self):
        # a collection inside the unit would time the package's heap, not
        # the processor; the unit frees what it allocates before returning
        gc.disable()
        try:
            t0 = time.perf_counter()
            unit()
            t1 = time.perf_counter()
        finally:
            gc.enable()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self._next = t1 + EVERY_S

    def maybe_sample(self):
        if time.perf_counter() >= self._next:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the unit's duration around [start, end]: the median of
        the samples within WINDOW_S of the interval, and at least of the
        last sample before it and the first one after it."""
        i = bisect.bisect_left(self.times, start - WINDOW_S)
        j = bisect.bisect_right(self.times, end + WINDOW_S)
        before = bisect.bisect_left(self.times, start)
        after = bisect.bisect_right(self.times, end)
        lo, hi = min(i, max(before - 1, 0)), max(j, after + 1)
        around = self.durations[lo:hi]
        if not around:
            raise ValueError("no calibration sample around the interval")
        return REF_S / statistics.median(around)
