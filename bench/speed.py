"""Machine-speed reference: normalise op latencies to a fixed CPU speed.

On a shared virtual machine the CPU speed a process gets drifts by tens of
percent over seconds to minutes (a neighbour on the sibling hyperthread,
frequency changes), and identical work takes anywhere from 1x to 1.8x as
long.  That drift swamps the differences a benchmark is meant to show.  So
the worker runs a fixed pure-Python reference loop, which touches nothing
of schubmat, every SAMPLE_EVERY_S seconds between ops (outside the timed
region) and scales each op's latency by ``NOMINAL_S / local loop time``,
where the local loop time is the median of the samples taken within
WINDOW_S of the op.  A normalised latency is the op's time at the speed at
which the loop takes NOMINAL_S; the loop is the same for every commit, so
a change to the library moves the normalised figures exactly as it moves
the raw ones on a steady machine.
"""

import bisect
import itertools
import os
import statistics
import time

SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.5
MIN_SAMPLES = 3
NOMINAL_S = 0.0022  # the loop's time on an unloaded 2-vCPU Xeon VM, Python 3.11

clock = time.perf_counter
_SUBSETS = [frozenset(c) for c in itertools.combinations(range(10), 4)]


def reference_loop() -> int:
    """Dict-and-tuple work and small-set intersections, like the library's inner loops.

    Each half alone tracked one workload's time as the machine's speed
    drifted and missed another's: the dict half over-corrected the matroid
    work of ``classes``, the set half under-corrected the interpreter
    start-up of ``cli-cold``."""
    table = {}
    count = 0
    for i in range(3000):
        key = (i & 63, (i >> 6) & 7)
        table[key] = table.get(key, 0) + i
        count += len(frozenset(key)) + (i * i) % 7
    for _ in range(4):
        for a in _SUBSETS[:60]:
            for b in _SUBSETS[::7]:
                if len(a & b) == 3:
                    count += 1
    return count


def pin_to_one_cpu():
    """Keep this process (and its children) on one CPU, the one the probe measures."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []  # midpoints, ascending
        self.costs: list[float] = []
        self._last = float("-inf")

    def sample(self):
        t0 = clock()
        reference_loop()
        t1 = clock()
        self.times.append((t0 + t1) / 2)
        self.costs.append(t1 - t0)
        self._last = t1

    def maybe_sample(self):
        if clock() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median loop time near [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            mid = (start + end) / 2
            if hi >= len(self.times) or (lo > 0 and mid - self.times[lo - 1] < self.times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.median(self.costs[lo:hi])

    def relative_speed(self) -> float:
        """Median loop time of the run over NOMINAL_S (above 1: slower than nominal)."""
        return statistics.median(self.costs) / NOMINAL_S
