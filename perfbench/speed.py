"""Machine-speed normalisation for a shared, noisy host.

On a host shared with other jobs the same code runs up to 1.6 times slower
in spells of seconds to minutes.  A fixed piece of pure-Python work, timed
between ops, slows down with it: big-integer Fractions, dict updates and a
tuple sort, the same kinds of work as the library's.  Each timing taken in
a run is multiplied by REFERENCE_S over the mean time of the reference work
in the LOCAL timings of it nearest in time, so it reads as it would on a
machine where the reference work takes REFERENCE_S seconds.  The mean,
not the median, because the slow spells come in bursts and the mean tracks
how much longer work takes.  Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.020
# Share of op time spent timing the reference work, spread over the run.
SHARE = 0.08
LOCAL = 8


def reference_work() -> int:
    rng = random.Random(7)
    rows = [(rng.randrange(10**12),
             Fraction(rng.randrange(1, 10**9), rng.randrange(1, 10**9)))
            for _ in range(4000)]
    sums: dict[int, Fraction] = {}
    for key, value in rows:
        sums[key % 997] = sums.get(key % 997, 0) + value
    rows.sort()
    return len(sums)


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []  # midpoints, increasing
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self):
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)
        self.spent += t1 - t0

    def keep_up(self, op_seconds: float):
        """Time the reference work until it has had SHARE of op time."""
        while self.spent < SHARE * op_seconds:
            self.sample()

    def factor(self) -> float:
        """What a time measured at any point of the run is multiplied by."""
        return REFERENCE_S / statistics.fmean(self.samples)

    def scale(self, start: float, seconds: float) -> float:
        """A time measured from start, scaled by the nearest timings."""
        i = bisect(self.times, start + seconds / 2)
        hi = min(len(self.times), max(i + LOCAL // 2, LOCAL))
        lo = max(0, hi - LOCAL)
        return seconds * REFERENCE_S / statistics.fmean(self.samples[lo:hi])
