"""Core-speed correction for a shared, noisy machine.

On the machine the bounds were set on (2 shared vCPUs), a core runs the same
pure-Python code at two speeds about 1.7x apart and switches between them
every few seconds, with other tenants' load.  Uncorrected times of one fixed
piece of work then spread by 15-25% from run to run (interquartile range
over median, ten runs), more than any bound worth having.

So the benchmark pins itself and its children to one core and, while a child
runs, times a fixed reference loop on that core twice a second, in CPU time
of the benchmark's own thread, so that the child's time slices do not count.
CPU time also leaves out the time the host takes from the core, which can
double the wall time of the same work on one of the two cores.

Every reported time is the child's CPU time scaled by NOMINAL_REF_S over the
mean reference time around it: what the work would have taken on the core
at its nominal speed.  Children that are mostly interpreter start use bare
interpreter starts as their reference instead (NOMINAL_INTERP_S).  Neither
reference runs circfib code, so a change to circfib cannot move them.
Uncorrected CPU figures are printed on the provenance line beside the
corrected ones.
"""

from __future__ import annotations

import bisect
import os
import time

# CPU time of one reference loop on an idle core of that machine.
NOMINAL_REF_S = 0.017
SAMPLE_INTERVAL_S = 0.5
# CPU time of a bare `python -c pass` on an idle core of that machine.  A
# child that is mostly interpreter start (a one-shot CLI call) is corrected
# by bare interpreter starts run beside it instead of by the loop, whose
# speed tracks start-up work poorly; INTERP_EVERY children share one.
NOMINAL_INTERP_S = 0.06
INTERP_EVERY = 3
INTERP_WINDOW_S = 0.8
# A child that starts later than this after the last sample gets one first,
# so that even a short child has a reference taken right next to it.
START_GAP_S = 0.1


def reference_work() -> int:
    """Fixed pure-Python work: the pair recurrence of a Horner evaluation in
    Z[phi], the same kind of big-int loop circfib spends its time in.  (A
    variant heavy on sets and dicts tracked verify's speed less closely.)"""
    acc = 0
    pattern = (1, 0) * 50
    for i in range(3000):
        x, y = i, i + 1
        for d in pattern:
            x, y = y + d, x + y
        acc ^= x & 0xFFFF
    return acc


def pin_to_one_core() -> int:
    """Pin this process (and the children it starts later) to one core: the
    one that runs the reference loop fastest in wall time right now, since a
    core the host is taking time from would stretch the run's wall time."""
    cores = sorted(os.sched_getaffinity(0))
    walls = {}
    for core in cores:
        os.sched_setaffinity(0, {core})
        start = time.perf_counter()
        for _ in range(3):
            reference_work()
        walls[core] = time.perf_counter() - start
    best = min(cores, key=walls.__getitem__)
    os.sched_setaffinity(0, {best})
    return best


class Reference:
    """Timed samples of one fixed piece of reference work, by time of day."""

    def __init__(self, nominal_s: float, window_s: float) -> None:
        self.nominal_s = nominal_s  # its time at the core's nominal speed
        self.window_s = window_s  # samples this close to a child correct it
        self.times: list[float] = []  # perf_counter at each sample's midpoint
        self.values: list[float] = []  # CPU seconds of each sample

    def add(self, start: float, end: float, cpu_s: float) -> None:
        self.times.append((start + end) / 2)
        self.values.append(cpu_s)

    def due(self, gap: float) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= gap

    def factor(self, start: float, end: float) -> float:
        """The nominal time over the mean sample near [start, end]."""
        lo = bisect.bisect_left(self.times, start - self.window_s)
        hi = bisect.bisect_right(self.times, end + self.window_s)
        if lo == hi:  # no sample that close: take the nearest one
            i = bisect.bisect_left(self.times, start)
            lo, hi = (i - 1, i) if i == len(self.times) else (i, i + 1)
        window = self.values[lo:hi]
        return self.nominal_s * len(window) / sum(window)

    def mean(self) -> float:
        return sum(self.values) / len(self.values)


def sample_loop(ref: Reference) -> None:
    """Time one reference loop in CPU time of this thread."""
    start, cpu = time.perf_counter(), time.thread_time()
    reference_work()
    ref.add(start, time.perf_counter(), time.thread_time() - cpu)
