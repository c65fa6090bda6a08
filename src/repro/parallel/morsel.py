"""Morsel-driven work division over table pages.

Following the morsel-driven parallelism model, a table scan is split
into *morsels* — contiguous page ranges small enough that work stays
balanced across workers, large enough that per-morsel overhead
amortizes.  The :class:`MorselDispatcher` is the atomic work queue:
workers pull the next morsel under a lock, so a fast worker simply
takes more morsels than a slow one (the classic antidote to static
range partitioning skew).

Morsels carry their sequence number so callers can reassemble partial
results *in page order*, which keeps parallel scan output identical to
a serial scan.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

#: Default pages per morsel.  With 8 KiB pages this is 128 KiB of input
#: per unit of work — enough to amortize dispatch, small enough to
#: balance four workers on tables of a few hundred pages.
DEFAULT_MORSEL_PAGES = 16


@dataclass(frozen=True)
class Morsel:
    """One contiguous page range ``[page_lo, page_hi)`` of a scan."""

    seq: int
    page_lo: int
    page_hi: int

    @property
    def num_pages(self) -> int:
        return self.page_hi - self.page_lo


class MorselDispatcher:
    """Atomically dispenses page-range morsels to a worker pool."""

    def __init__(self, num_pages: int, morsel_pages: int = DEFAULT_MORSEL_PAGES):
        if morsel_pages <= 0:
            raise ValueError("morsel_pages must be positive")
        self.num_pages = num_pages
        self.morsel_pages = morsel_pages
        self._next_page = 0
        self._next_seq = 0
        self._lock = threading.Lock()

    @property
    def num_morsels(self) -> int:
        """Total morsels this dispatcher will hand out."""
        return -(-self.num_pages // self.morsel_pages)

    def next(self) -> Morsel | None:
        """The next unclaimed morsel, or None when the scan is consumed."""
        with self._lock:
            if self._next_page >= self.num_pages:
                return None
            lo = self._next_page
            hi = min(lo + self.morsel_pages, self.num_pages)
            morsel = Morsel(seq=self._next_seq, page_lo=lo, page_hi=hi)
            self._next_page = hi
            self._next_seq += 1
            return morsel

    def __iter__(self) -> Iterator[Morsel]:
        while True:
            morsel = self.next()
            if morsel is None:
                return
            yield morsel


def morsels_for(num_pages: int, morsel_pages: int = DEFAULT_MORSEL_PAGES) -> list[Morsel]:
    """Statically enumerate the morsels of a scan (for fan-out APIs)."""
    return list(MorselDispatcher(num_pages, morsel_pages))


class TaskDispatcher:
    """Atomically dispenses task indices ``0..count-1`` to a worker pool.

    The row-level sibling of :class:`MorselDispatcher`: the parallel
    phase scheduler enumerates a phase's units of work (partition
    pairs, row chunks, sorted-run slices) up front, and workers claim
    indices until the queue is dry — the same dynamic load balancing
    morsel scans get, applied to materialized intermediates.
    """

    def __init__(self, count: int):
        if count < 0:
            raise ValueError("count must be non-negative")
        self.count = count
        self._next = 0
        self._lock = threading.Lock()

    def next(self, slot: int = 0) -> int | None:
        """The next unclaimed task index, or None when all are taken.

        ``slot`` identifies the claiming worker; this dispatcher is
        slot-oblivious (pure FIFO), the parameter exists so claim loops
        can drive it and :class:`AffinityDispatcher` interchangeably.
        """
        with self._lock:
            if self._next >= self.count:
                return None
            index = self._next
            self._next += 1
            return index

    def cancel(self) -> None:
        """Poison the queue: every future :meth:`next` returns None.

        Used when a batch is abandoned (task timeout): surviving claim
        workers finish their current task and stop, instead of running
        the rest of a batch whose caller has already unwound.
        """
        with self._lock:
            self._next = self.count


class AffinityDispatcher:
    """Sticky worker↔partition task queues with work-stealing fallback.

    The page-range-affinity sibling of :class:`TaskDispatcher`: each
    task carries a partition id (a stable function of its page range),
    tasks queue per partition, and claim worker ``slot`` drains its own
    partition's queue first — so across morsels *and across runs* the
    same worker walks the same contiguous page stripes (sequential
    reads per worker, warm buffer-pool reuse) instead of interleaving
    claims FIFO.  When a worker's own queue runs dry it *steals* from
    the tail of the longest other queue, so skewed stripes still
    balance dynamically — the classic work-stealing fallback.

    Result order never depends on claim order (callers key results by
    task index), so affinity changes scheduling only, never rows.
    """

    def __init__(
        self, count: int, partitions: Sequence[int], workers: int
    ):
        if count != len(partitions):
            raise ValueError("one partition id per task is required")
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers
        self._queues: list[deque[int]] = [
            deque() for _ in range(workers)
        ]
        for index, partition in enumerate(partitions):
            self._queues[partition % workers].append(index)
        self._lock = threading.Lock()
        #: Tasks claimed from another worker's queue (observability).
        self.steals = 0

    def next(self, slot: int = 0) -> int | None:
        """The next index for worker ``slot``: own queue, then steal."""
        with self._lock:
            own = self._queues[slot % self.workers]
            if own:
                return own.popleft()
            victim = max(self._queues, key=len)
            if victim:
                # Steal from the *tail*: the victim keeps draining its
                # stripe contiguously from the head.
                self.steals += 1
                return victim.pop()
            return None

    def cancel(self) -> None:
        """Poison every queue: all future :meth:`next` calls return None."""
        with self._lock:
            for queue in self._queues:
                queue.clear()
