"""Keep the calling process on the least disturbed of its CPUs.

On a shared host one CPU of the process's set often runs 40-70% slower
than another for seconds at a time (another tenant on the same core),
and the scheduler does not move a lone busy process away from it.  Between
timed ops the worker calls :class:`FastestCpu`; at most every
``INTERVAL_S`` seconds it runs a short fixed loop on each allowed CPU and
pins itself (and the CLI children it starts afterwards) to the fastest.
No op is timed while it runs.  Where CPU affinity cannot be set, it does
nothing.
"""

from __future__ import annotations

import os
import time

INTERVAL_S = 0.1
PROBE_LOOPS = 5000  # about 0.3 ms per probe


def _probe() -> float:
    t = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i & 7
    return time.perf_counter() - t


class FastestCpu:
    def __init__(self):
        self.last = float("-inf")
        self.moves = 0
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []
        self.current = None

    def __call__(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() - self.last < INTERVAL_S:
            return
        try:
            timed = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                timed.append((min(_probe(), _probe()), cpu))
            best = min(timed)[1]
            os.sched_setaffinity(0, {best})
        except OSError:
            self.cpus = []
            return
        self.moves += best != self.current
        self.current = best
        self.last = time.perf_counter()
