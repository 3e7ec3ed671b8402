"""Host-speed normalisation: a fixed reference kernel timed through a run.

On the shared 2-vCPU host this benchmark was written on, the CPU time of
the same braidplan work moved by 30-70% between minutes and by more within
a second: other tenants share the physical cores and caches, and CPU time
counts the cycles lost to them.  Neither wall time nor CPU time escapes
this.  So the worker times a fixed piece of work that belongs to the
benchmark, not to braidplan, every few tenths of a second of CPU time,
from a profiling-timer signal handler so that samples fall inside long
plans too.  It then converts every time it measured into seconds at the
reference speed, using the speed the kernel showed just before and just
after.  A change to braidplan does not change the kernel, so a program
that gets slower still reads slower; only the host's speed cancels.

The kernel is a blend of three parts of about equal time: an arithmetic
interpreter loop, tuple keys in a dict with a binary heap, and calls on
small numpy arrays.  In one process that alternated each part with a fixed
n = 3 task sequence and with fixed n = 10 queries for ten minutes, the
mean time of each program piece per 20-second window varied by 12-13%
(coefficient of variation); its ratio to the blend varied by 1.4%, and
to any single part by 1.5-2.6%.  No kernel tracks every kind of load: on
one step between runs an arithmetic-only kernel slowed by 77% while the
program slowed by 15%, which is why the blend is used.  Over eight runs of
``trio-long``, converting with the speed measured around each task
sequence rather than with one speed per run cut the interquartile range
of its throughput from 17% to 8% of the median (24% unscaled).
"""

from __future__ import annotations

import heapq
import signal
import statistics
from time import thread_time

import numpy as np

# Typical CPU time of one ``reference_slice`` between braidplan work on the
# reference host (a shared 2-vCPU Intel Xeon virtual machine, Python 3.11.7,
# numpy 2.4.6).  The benchmark reports times as CPU seconds at the speed at
# which the kernel takes this long.
REFERENCE_SLICE_S = 0.007

# A speed sample is the mean time of this many slices: braidplan's CPU time
# sums every cycle lost to other tenants, so the kernel's should too.
SLICES_PER_SAMPLE = 3

# Process CPU time between two samples taken by the timer.  Three slices
# per sample take about 7% of the run.
SECONDS_PER_SAMPLE = 0.3


def reference_slice() -> float:
    """One fixed piece of work, a few milliseconds long, in three equal
    parts: an arithmetic loop, tuple keys in a dict and a binary heap (as
    in the planner's search), and calls on arrays of two dozen floats (as
    in the geometry)."""
    total = 0
    values = [0.0] * 64
    for i in range(13000):
        total += (i * 7) % 13
        values[i & 63] = values[i & 63] * 0.5 + i
    table: dict[tuple, int] = {}
    heap: list[tuple] = []
    perm = tuple(range(8))
    x = 12345
    for i in range(1000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x % 7
        perm = perm[:j] + (perm[j + 1], perm[j]) + perm[j + 2:]
        key = (perm, j, i & 15)
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (x & 1023, i, perm))
        if len(heap) > 200:
            heapq.heappop(heap)
    points = np.linspace(0.0, 1.0, 24)
    acc = 0.0
    for i in range(300):
        moved = np.abs(points * (1.0 + i * 1e-3) - 0.5)
        order = np.argsort(moved, kind="stable")
        acc += float(moved[order[3]]) + float(np.searchsorted(points, 0.25 + i * 1e-3))
    return total + values[5] + len(table) + acc


class HostSpeed:
    """Speed samples taken through one run, and the clock they define.

    ``to_reference`` maps a ``thread_time()`` reading to reference seconds.
    Between two samples that clock runs at ``REFERENCE_SLICE_S`` over the
    mean of the two samples' slice times; while a sample runs it stands
    still, so the slices never count as measured work.  A run samples once
    before the first measured interval and once after the last one.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.slice_s: list[float] = []

    def sample(self, count: int = SLICES_PER_SAMPLE) -> None:
        start = thread_time()
        times = []
        for _ in range(count):
            t0 = thread_time()
            reference_slice()
            times.append(thread_time() - t0)
        self.starts.append(start)
        self.ends.append(thread_time())
        self.slice_s.append(statistics.fmean(times))

    def start_timer(self) -> None:
        """Sample every ``SECONDS_PER_SAMPLE`` of process CPU time from now."""
        signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, SECONDS_PER_SAMPLE, SECONDS_PER_SAMPLE)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def first_rate(self) -> float:
        """Reference seconds per CPU second at the first sample."""
        return REFERENCE_SLICE_S / self.slice_s[0]

    def to_reference(self, times):
        """Reference seconds at each reading in ``times`` (array-like)."""
        starts, ends, slice_s = (np.asarray(a) for a in (self.starts, self.ends, self.slice_s))
        rates = REFERENCE_SLICE_S / ((slice_s[:-1] + slice_s[1:]) / 2.0)
        at_start = np.concatenate(([0.0], np.cumsum((starts[1:] - ends[:-1]) * rates)))
        raw = np.column_stack((starts, ends)).ravel()
        ref = np.repeat(at_start, 2)
        return np.interp(times, raw, ref)
