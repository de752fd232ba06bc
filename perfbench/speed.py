"""Host-speed gauge: the times the benchmark reports are scaled to a fixed
reference speed of the machine.

The benchmark shares a host with other work, and the speed of each of this
machine's cores drifts by up to 2x over seconds to tens of seconds, each core
on its own: every job of a phase gets slower together, in process CPU time as
well as in wall time (it is not time stolen by the hypervisor, which CPU time
would exclude).  A run that falls into a slow phase would then read as a
regression.

So a short fixed kernel that calls no code of the repository is timed
between consecutive jobs (and around each set-up).  A job's wall time is
multiplied by ``REFERENCE_S`` ÷ the kernel's time around it, the median of
the kernel samples within ``WINDOW`` jobs on either side, so one disturbed
sample does not move it.  The result is in seconds at the reference speed:
a change of the repository's code moves it as it moves the wall time, while
the host's drift cancels.  The kernel mixes what the jobs do, interpreted
Python on dicts, tuples and lists, and small numpy operations; it runs with
the garbage collector paused, so the jobs' heap does not change its cost.

A workload whose jobs run in one process is gauged on the core the process
is on.  One whose jobs keep every core busy (the cluster workers) is gauged
on each core in turn, and a sample is the mean over the cores.
"""

from __future__ import annotations

import gc
import os
import statistics
from time import perf_counter
from typing import Any, Callable

import numpy

#: The kernel's seconds at the reference speed: its median in the fast
#: phases of a 2-core shared x86-64 host (Python 3, numpy, tsc clock).
REFERENCE_S = 0.0010

#: Kernel samples on either side of a job that its speed factor uses.
WINDOW = 3

_VECTOR = numpy.arange(4096, dtype=numpy.float64)


def _kernel() -> float:
    counts: dict[tuple[int, str], float] = {}
    total = 0.0
    for i in range(600):
        key = (i % 89, "k" + str(i % 11))
        counts[key] = counts.get(key, 0.0) + i * 0.5
        row = [j * 1.5 for j in range(12)]
        total += sum(row) + len(counts)
        if i % 60 == 0:
            total += float(numpy.dot(_VECTOR, _VECTOR * 1.0001))
    return total


def kernel_seconds() -> float:
    """One timed run of the kernel, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _kernel()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedGauge:
    """Kernel samples taken between jobs; sample ``i`` precedes job ``i``.

    With ``every_core`` a sample pins the calling thread to each core the
    process may use in turn and then restores its affinity.
    """

    def __init__(self, every_core: bool = False) -> None:
        self.cores = sorted(os.sched_getaffinity(0)) if every_core else []
        for _ in range(5):  # warm the kernel's code and data
            self.kernel()
        self.samples: list[float] = []

    def kernel(self) -> float:
        """The kernel's seconds now: on this core, or the mean over cores."""
        if len(self.cores) < 2:
            return kernel_seconds()
        times = []
        try:
            for core in self.cores:
                os.sched_setaffinity(0, {core})
                times.append(kernel_seconds())
        finally:
            os.sched_setaffinity(0, self.cores)
        return statistics.fmean(times)

    def sample(self) -> None:
        self.samples.append(self.kernel())

    def scale(self, job: int) -> float:
        """REFERENCE_S ÷ the kernel's time around job ``job`` (which ran
        between samples ``job`` and ``job + 1``)."""
        window = self.samples[max(0, job - WINDOW + 1) : job + WINDOW + 1]
        return REFERENCE_S / statistics.median(window)

    def scaled_call(self, call: Callable[[], Any]) -> tuple[float, Any]:
        """(seconds at the reference speed, result) of one call, with the
        kernel timed ``2 * WINDOW`` times right before and as often right
        after it."""
        before = [self.kernel() for _ in range(2 * WINDOW)]
        started = perf_counter()
        result = call()
        elapsed = perf_counter() - started
        after = [self.kernel() for _ in range(2 * WINDOW)]
        speed = (statistics.median(before) + statistics.median(after)) / 2
        return elapsed * REFERENCE_S / speed, result
