"""How fast this core runs at each moment, from a fixed pure-Python computation.

On a shared machine, other tenants can slow a core by half or more, in
bursts of a fraction of a second and in spells of minutes, without any of it
showing as steal time.  While the benchmark runs, an interval timer
interrupts it every TICK seconds to time a small reference computation on the
same core.  An operation measured from `start` for `took` seconds is then
reported at reference speed:

    took * REFERENCE_SECONDS / (mean reference time around [start, start + took])

that is, its time on a core where the reference takes REFERENCE_SECONDS: the
tenth percentile of the reference's times on the machine the baseline was
measured on (2-core Intel Xeon at 2.1 GHz, Python 3.11), where it ran in 0.12
ms at best and 0.19 ms at the median.  Scaled figures are thus about the
program's seconds on that machine when it is quiet.  A slower or faster
program moves the scaled time; a busier machine does not, except for the few
percent by which contention hits the reference and the program differently.
The reference runs inside the timed operations and adds about 0.3% to them.
"""

from __future__ import annotations

import bisect
import signal
import time

REFERENCE_SECONDS = 0.00013
TICK = 0.05
WINDOW = 0.25  # an operation shorter than this is scaled by the ticks around it


def _graph(n: int, seed: int = 12345) -> list[int]:
    """A fixed random graph as adjacency bitmasks, from a linear congruential generator."""
    adj = [0] * n
    x = seed
    for u in range(n):
        for v in range(u + 1, n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if x >> 16 & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


_ADJ = _graph(30)


def reference() -> int:
    """Count the triangles of a fixed graph by bitmask search: the same kind of
    integer, list and call work as ramseylab's searches."""

    def grow(cand: int, depth: int) -> int:
        if depth == 3:
            return 1
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            total += grow(cand & _ADJ[v], depth + 1)
        return total

    return grow((1 << len(_ADJ)) - 1, 0)


class Speed:
    """Times the reference every TICK seconds between `start()` and `stop()`."""

    def __init__(self):
        self.at: list[float] = []  # when each reference run started
        self.took: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # CPU time of this thread: a child process that holds the core while
        # this tick waits for it must not count as a slow core.
        at, start = time.perf_counter(), time.thread_time()
        reference()
        self.took.append(time.thread_time() - start)
        self.at.append(at)

    def start(self) -> None:
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def scaled(self, start: float, took: float) -> float:
        """`took` seconds from `start`, at reference speed."""
        middle = start + took / 2
        half = max(took, WINDOW) / 2
        lo = bisect.bisect_left(self.at, middle - half)
        hi = bisect.bisect_right(self.at, middle + half)
        if lo == hi:  # no tick near: the nearest one (start() and stop() each add one)
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        window = self.took[lo:hi]
        return took * REFERENCE_SECONDS * len(window) / sum(window)
