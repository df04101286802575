"""The shared host's speed, measured with a fixed piece of the benchmark's own work.

A shared host runs the same op up to twice as slowly from one moment to the
next, and its slow spells last from a second to minutes, so two runs of the
same code read far apart. The benchmark therefore times a fixed reference
work (plain Python arithmetic and small numpy array operations, as in the
package) between its ops, and scales each op's timing to the reference
speed by the median time of the reference work within ``WINDOW_S`` of the
op. The reference work is the benchmark's own code: a change to the package
cannot make it faster or slower.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# the reference work's time at the reference speed: about its median on
# the 2-vCPU shared host the time limits were set on
REFERENCE_S = 0.5e-3
# one sample of the reference work per this much time spent in ops, and
# at least one after every op
SAMPLE_EVERY_S = 0.025
# a timing is scaled by the samples taken from this long before it starts
# to this long after it ends; the host switches speed within a second or
# two, and a wider window mixes the speeds before and after a switch
WINDOW_S = 0.25

_VALUES = np.linspace(0.1, 4.0, 512)
_PICK = np.random.default_rng(0).integers(0, 512, 512)


def reference_work() -> int:
    total = 0
    for i in range(3000):
        total += (i * 7) % 13
    x = _VALUES
    for _ in range(40):
        y = np.log2(1.0 + x * 0.37)
        x = np.sqrt(x + y.sum() * 1e-6)[_PICK]
    return total


class HostSpeed:
    """Times of the reference work, each with the moment it ended."""

    def __init__(self):
        self.ends: list[float] = []
        self.costs: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            reference_work()
            end = time.perf_counter()
            self.ends.append(end)
            self.costs.append(end - start)

    def after_op(self, busy_s: float) -> None:
        """Samples for an op that just took ``busy_s``."""
        self.sample(max(1, round(busy_s / SAMPLE_EVERY_S)))

    def scale(self, start: float, end: float) -> float:
        """Reference over measured speed around [start, end] (perf_counter seconds)."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        costs = self.costs[lo:hi] or self.costs
        return REFERENCE_S / statistics.median(costs)

    def slowness(self) -> float:
        """Median time of the reference work over its reference time, across the run."""
        return statistics.median(self.costs) / REFERENCE_S
