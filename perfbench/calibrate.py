"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed moves by up to 2x for seconds
to minutes at a time, as other tenants come and go.  A calibration unit is a
fixed piece of plain Python, shipped with the benchmark and independent of
refsys, built from what refsys spends its time on: tuples, dicts, frozensets
and calls.  A checking process runs units between its timed items, keeping
them at SHARE of its wall time, so that over a run they sample the host's
speed over the same minutes as the checks.  A run's speed factor is the mean
unit time over REFERENCE_S, and each timing is divided by it: the benchmark
reports seconds at the reference host speed.  A change to refsys moves the
timings and never the factor.
"""
from __future__ import annotations

import gc
import time

clock = time.perf_counter

REFERENCE_S = 0.004  # one unit's time on the reference host
SHARE = 0.05


def unit() -> int:
    """One calibration unit: compose two tables, index and compare them.  The
    tables take about a megabyte, more than a core's own caches hold, so that
    the unit slows as refsys does when other tenants contend for the host's
    shared caches."""
    dom = tuple((i % 97, i // 97) for i in range(5000))
    f = {x: (x[1], x[0] % 5) for x in dom}
    g = {y: y[0] * 5 + y[1] for y in set(f.values())}
    h = {x: g[f[x]] for x in dom}
    image = frozenset(h.values())
    index = {x: i for i, x in enumerate(dom)}
    return len(image) + sum(index[x] for x in dom if h[x] % 7 == 0)


class Calibrator:
    """Runs calibration units at SHARE of the wall time since it was made."""

    def __init__(self):
        self.start = clock()
        self.spent = 0.0
        self.samples: list = []

    def keep_up(self) -> None:
        while self.spent < SHARE * (clock() - self.start):
            # a collection of the checked program's objects is not host speed
            gc.disable()
            try:
                t0 = clock()
                unit()
                seconds = clock() - t0
            finally:
                gc.enable()
            self.samples.append(seconds)
            self.spent += seconds
