"""Host-speed calibration of the benchmark's end-to-end times, set-up excepted.

The CPU speed a process gets on a shared host can swing by 30 % within
seconds, because other tenants' work runs on the same cores.  Medians over a
run do not remove a swing that lasts most of the run.  So every timed
interval is bracketed by two probes, and its seconds are scaled by
REFERENCE_S over the mean of the two probe times: the result reads as seconds
on a host where the probe takes REFERENCE_S.

The benchmark does not pin itself or its children: the scheduler may run them
on any allowed CPU, and a pool of workers may use them all.  A probe
therefore times a fixed task on every allowed CPU in turn (moving only the
probing thread, and moving it back) and returns the fastest time.  Not the
mean: when another tenant slows one CPU down, the probe pinned there feels
it in full, while the workload mostly runs on the other CPU (in one run on a
2-vCPU host the mean probe read 1.57 times slow while the workload ran 1.18
times slow).  The task mixes interpreter-bound Python with small numpy
operations, like the code it calibrates; it runs no sltime code, so a change
to sltime cannot move it.
"""

from __future__ import annotations

import os
import time

#: a fixed scale: calibrated times read as seconds on a host where the probe
#: takes this long (about its time on the 2-vCPU VM the bounds were set on)
REFERENCE_S = 0.0128


def _task() -> float:
    """Seconds a fixed mix of Python bytecode and numpy calls takes now."""
    import numpy as np  # here, so that no set-up pays for the probe's numpy

    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    values = np.arange(4000.0)
    for _ in range(100):
        values = np.sqrt(values * values + 1.0)
    return time.perf_counter() - start


_warm = False


def probe() -> float:
    """Fastest time of the fixed task over the CPUs this process may use.

    A process's first run of the task also pays for first use of numpy's
    code; that run is not timed."""
    global _warm
    if not _warm:
        _task()
        _warm = True
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(_task())
    finally:
        os.sched_setaffinity(0, allowed)
    return min(times)


class Speed:
    """Chains probes between consecutive intervals; the probe after one
    interval is the probe before the next."""

    def __init__(self) -> None:
        self.last = probe()
        self.probes = [self.last]

    def factor(self) -> float:
        """Close the current interval: REFERENCE_S over its probes' mean."""
        before, self.last = self.last, probe()
        self.probes.append(self.last)
        return REFERENCE_S / (0.5 * (before + self.last))
