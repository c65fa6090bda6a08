"""Version-keyed cache of staged scan intermediates.

Staging — the partition/sort pass that converts a table's pages into
the layout a join or aggregation consumes — dominates per-query cost in
the paper's Table III breakdowns.  For a warm repeated query the pages
have not changed, so the staged structure has not either: entries are
keyed ``(table, version, signature)``, where ``version`` is the table's
monotonic mutation epoch and ``signature`` captures everything else
that shapes the staged output (the scan's memoised
:attr:`~repro.plan.descriptors.ScanStage.staging_shape` — prep kind and
keys, projected columns, rendered filters — plus the parameter vector
that pins the filters' parameter slots).  A DML mutation moves the
version, so stale entries simply stop being reachable; the owning
database additionally drops them eagerly through the catalogue's
change listeners.

Generated join/merge templates sort their inputs *in place*, so both
``put`` and ``get`` copy the two container levels that execution
mutates (the outer list/dict and each bucket).  Row tuples are
immutable and shared.

The cache is bytes-bounded LRU: staged intermediates can dwarf the
plans that produced them, so the budget is expressed in (approximate)
payload bytes rather than entry count.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

#: Default budget: staged rows for a handful of warm statements.
DEFAULT_CAPACITY_BYTES = 32 * 1024 * 1024

#: How many ``(table, signature)`` hashes the admission filter keeps.
SIGHTINGS_CAPACITY = 4096


@dataclass
class IntermediateCacheStats:
    """Point-in-time effectiveness counters."""

    capacity_bytes: int
    entries: int
    bytes: int
    hits: int
    misses: int
    evictions: int
    invalidations: int
    #: Admission filter: misses recorded as a first sighting, misses
    #: admitted as a repeat, and sightings aged out of the FIFO.
    sightings: int
    admitted: int
    sighting_evictions: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _copy_staged(value: Any) -> Any:
    """Copy the mutable container levels of a staged structure.

    Shapes per prep kind: flat row list (none/sort), list of bucket
    lists (coarse partition / partition-sort), dict key → row list
    (fine partition).  Rows are tuples and safe to share.
    """
    if isinstance(value, dict):
        return {key: list(rows) for key, rows in value.items()}
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return [list(bucket) for bucket in value]
        return list(value)
    return value


def _approx_bytes(value: Any) -> int:
    """Rough payload size: per-row overhead plus per-field slots.

    Rows of one staging share a layout, so each bucket is sized from
    its first row: O(buckets), not O(rows).
    """
    if isinstance(value, dict):
        buckets = value.values()
    elif value and isinstance(value[0], list):
        buckets = value
    else:
        buckets = (value,)
    total = 64
    for bucket in buckets:
        total += 64
        if bucket:
            total += len(bucket) * (56 + 16 * len(bucket[0]))
    return total


class IntermediateCache:
    """Thread-safe, bytes-bounded LRU of staged scan outputs."""

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        if capacity_bytes <= 0:
            raise ValueError("intermediate cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        #: (table, version, signature) → (staged value, size bytes)
        self._entries: "OrderedDict[tuple, tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        #: hash((table, signature)) of recent misses, oldest first.
        self._sightings: dict[int, None] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._first_sightings = 0
        self._admitted = 0
        self._sighting_evictions = 0

    def get(self, table: str, version: int, signature: tuple) -> Any:
        """The cached staged structure (a private copy), or None."""
        key = (table, version, signature)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            value = entry[0]
        # Copy outside the lock: hit copies can be large.
        return _copy_staged(value)

    def sighted(self, table: str, signature: tuple) -> bool:
        """Record a miss on ``(table, signature)``; True from the second.

        The admission rule callers apply before :meth:`put`: a staging
        nobody asked for twice is not worth sizing and copying.  The
        key leaves the version out, so a re-stage after DML counts as a
        repeat; the filter is a bounded FIFO of hashes.
        """
        key = hash((table, signature))
        with self._lock:
            if key in self._sightings:
                self._admitted += 1
                return True
            self._first_sightings += 1
            self._sightings[key] = None
            if len(self._sightings) > SIGHTINGS_CAPACITY:
                del self._sightings[next(iter(self._sightings))]
                self._sighting_evictions += 1
            return False

    def put(
        self, table: str, version: int, signature: tuple, value: Any
    ) -> None:
        """Store a copy of ``value``; evicts LRU entries over budget.

        A value too large for the whole budget is simply not admitted.
        """
        size = _approx_bytes(value)
        if size > self.capacity_bytes:
            return
        copied = _copy_staged(value)
        key = (table, version, signature)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (copied, size)
            self._bytes += size
            while self._bytes > self.capacity_bytes and len(self._entries) > 1:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                self._evictions += 1

    def invalidate_table(self, table: str | None) -> int:
        """Drop entries for one table (or all with ``None``).

        DML makes old-version entries unreachable on its own; this
        frees their memory eagerly.  DDL *must* call it (or
        :meth:`clear`): a dropped-and-recreated table restarts its
        version epoch at zero, which would otherwise alias old entries.
        """
        with self._lock:
            if table is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._bytes = 0
            else:
                doomed = [
                    key for key in self._entries if key[0] == table
                ]
                for key in doomed:
                    _, size = self._entries.pop(key)
                    self._bytes -= size
                dropped = len(doomed)
            self._invalidations += dropped
            return dropped

    def clear(self) -> int:
        """Drop everything; returns how many entries were dropped."""
        return self.invalidate_table(None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> IntermediateCacheStats:
        with self._lock:
            return IntermediateCacheStats(
                capacity_bytes=self.capacity_bytes,
                entries=len(self._entries),
                bytes=self._bytes,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                sightings=self._first_sightings,
                admitted=self._admitted,
                sighting_evictions=self._sighting_evictions,
            )
