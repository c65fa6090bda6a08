"""Host-speed calibration: a fixed kernel timed between operations.

The sandboxes this benchmark runs on have two hardware threads of one
core.  Whenever the sibling thread is busy — with another tenant's
work, mostly — everything here runs about 1.6 times slower, for
anything between a few milliseconds and several minutes.  Whole runs
fall on one side or the other, so no statistic taken inside a run
steadies them: ten 15-second ``adhoc_analytic`` runs of one commit
spread (interquartile, over the median) by 0.24 to 0.47 on throughput,
beyond any bound the builder's contract allows.

So every timing the benchmark reports end to end is divided by how much
slower than :data:`REFERENCE_S` a small fixed piece of interpreter work
ran right around it.  The kernel allocates nothing the collector tracks
(so it moves no collection into or out of an operation), runs on the
caller's thread while no operation of that caller is in flight, and is
left out of every measured interval.  It follows the host's state, not
the program: a change to the program moves an operation's time and
leaves the kernel's alone.  Measured on the commit that added it, it
brings the spreads above down to 0.06-0.18; what remains is mostly that
the program's two worker threads lose somewhat more to a busy sibling
(1.7-1.8 times) than one thread does.  The raw numbers are printed next
to the normalised ones.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right

#: What one kernel takes on the host the benchmark was defined on while
#: the sibling hardware thread is idle.  Normalised timings read "as on
#: a host where the kernel takes this long"; on other hardware the
#: constant only scales every value alike.
REFERENCE_S = 0.00074
#: A caller takes a sample whenever it has been busy this long since the
#: last one: the kernel then costs about 2 % of the run.
SAMPLE_EVERY_S = 0.04

_ROUNDS = 5
_VALUES = tuple(range(2000))


class Calibration:
    """The samples of one run, and the slowdown they imply for any
    interval of it."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.slowdowns: list[float] = []
        self._table = {i: float(i) for i in range(256)}

    def sample(self) -> None:
        """Run the kernel once and note how long it took."""
        table = self._table
        total = 0.0
        started = time.perf_counter()
        for _ in range(_ROUNDS):
            for value in _VALUES:
                if value & 3:
                    total += table[value & 255] * 0.5
                else:
                    table[value & 255] = total % 97.0
        ended = time.perf_counter()
        self.times.append((started + ended) / 2)
        self.slowdowns.append((ended - started) / REFERENCE_S)

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown over the samples from the last one before
        ``start`` to the first one after ``end``."""
        first = max(bisect_right(self.times, start) - 1, 0)
        last = min(bisect_left(self.times, end), len(self.times) - 1)
        window = self.slowdowns[first:last + 1]
        return sum(window) / len(window)

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` as it would have read at reference speed."""
        return (end - start) / self.slowdown(start, end)
