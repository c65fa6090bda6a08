"""Version-keyed cache of statement answers and staged scan intermediates.

A warm repeated query reads pages that have not changed since it last
ran, so its answer has not changed either.  The cache keeps that
answer — MonetDB's recycler (Ivanova et al., "An architecture for
recycling intermediates in a column-store", SIGMOD 2009) at the root
of the plan — and, below it, the staged scan outputs a stale answer
can rebuild from.  Both kinds of entry share one bytes-bounded LRU
budget:

* an **answer** is a statement's result rows, keyed ``(token, params,
  versions)``: the :class:`~repro.core.engine.PreparedQuery`'s identity
  token (a monotonic counter stamped at prepare time, so two plans of
  the same text never share an entry), the ``repr`` of the parameter
  vector (exact for every parameter type, where ``1 == 1.0`` and
  ``0.0 == -0.0`` are not) and the sorted ``(table, version)`` of
  every table the plan scans;
* a **staging** is the partition/sort pass that converts a table's
  pages into the layout a join or aggregation consumes, keyed
  ``(table, version, signature)``, where ``signature`` is the scan's
  memoised :attr:`~repro.plan.descriptors.ScanStage.staging_shape`
  plus the values of the parameter slots its filters read
  (:attr:`~repro.plan.descriptors.ScanStage.param_slots`), so
  bindings that differ only elsewhere share one staging.

``version`` is a table's monotonic mutation epoch: a write moves it,
so an entry over the old pages stops being reachable, and the owning
database drops it eagerly (:meth:`IntermediateCache.invalidate_table`,
through a per-table key index, so a write costs the entries it makes
stale, not a walk of the whole cache).

An INSERT is the exception for stagings.  A staging banked with its
heap end (the ``(page, slot)`` just past the rows it covers) stays
after an append: while the table has seen nothing but appends since
(:attr:`~repro.storage.table.Table.rewritten`), the caller stages just
the rows past that end and merges them in
(:func:`~repro.parallel.stage.extend_staged`).
:meth:`IntermediateCache.newest` finds the staging to extend through a
per-``(table, signature)`` pointer, and the extended staging is banked
in its place.  The owning database therefore drops only the answers on
an INSERT, and everything on any other write.

Admission is counted, not configured.  A miss is recorded in a bounded
FIFO of sightings whose keys leave the versions out; from a key's
second sighting the run banks what it computed.  An answer's sighting
is marked once it banked, and moves to the FIFO's young end on every
hit, which is what makes a later miss *stale* rather than new: a write
moved a version under it, or the LRU pushed it out.  Only a stale run
sights and banks stagings — the one case in which a staging is read
again is a current staging under a stale answer, so a statement
answered from the cache banks no staging it will never read.

Generated join/merge templates sort their inputs *in place*, and
callers may mutate the rows they are handed, so both ``put`` and
``get`` copy the container levels that execution mutates (the outer
list/dict and each bucket).  Row tuples are immutable and shared.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

#: Default budget: answers plus staged rows for a handful of warm
#: statements.
DEFAULT_CAPACITY_BYTES = 32 * 1024 * 1024

#: How many sighting keys the admission filter keeps.
SIGHTINGS_CAPACITY = 4096


@dataclass
class IntermediateCacheStats:
    """Point-in-time effectiveness counters."""

    capacity_bytes: int
    entries: int
    bytes: int
    #: Every lookup, answers and stagings alike.
    hits: int
    misses: int
    evictions: int
    invalidations: int
    #: Admission filter: misses recorded as a first sighting, misses
    #: admitted as a repeat, and sightings aged out of the FIFO.
    sightings: int
    admitted: int
    sighting_evictions: int
    #: Answer lookups: hits (statements answered without running), and
    #: misses whose answer had been banked before (stale).
    answers: int
    stale: int
    #: Stagings brought up to date by staging only appended rows.
    extended: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _copy_staged(value: Any) -> Any:
    """Copy the mutable container levels of a cached value.

    Shapes: flat row list (answers, and stagings with prep none/sort),
    list of bucket lists (coarse partition / partition-sort), dict key
    → row list (fine partition).  Rows are tuples and safe to share.
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
    """Thread-safe, bytes-bounded LRU of answers and staged scan outputs."""

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        if capacity_bytes <= 0:
            raise ValueError("intermediate cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        #: key → (value, size bytes, names of the tables it reads).
        #: A staging key starts with its table's name, an answer key
        #: with the query's int token, so the two never compare equal.
        self._entries: "OrderedDict[tuple, tuple[Any, int, tuple]]" = (
            OrderedDict()
        )
        #: table name → keys of the entries that read it.
        self._by_table: dict[str, set[tuple]] = {}
        #: (table, signature) → (version, heap end) of the newest
        #: staging banked with its end: the one an append extends.
        self._newest: dict[tuple, tuple[int, tuple]] = {}
        self._bytes = 0
        #: Sighting key hash → whether an answer banked under it, oldest
        #: first.
        self._sightings: "OrderedDict[int, bool]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._first_sightings = 0
        self._admitted = 0
        self._sighting_evictions = 0
        self._answers = 0
        self._stale = 0
        self._extended = 0

    # -- stagings ------------------------------------------------------------
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
        # Copy outside the lock: hit copies can be large.
        return _copy_staged(entry[0])

    def sighted(self, table: str, signature: tuple) -> bool:
        """Record a miss on ``(table, signature)``; True from the second.

        The admission rule callers apply before :meth:`put`: a staging
        nobody asked for twice is not worth sizing and copying.  The
        key leaves the version out, so a re-stage after DML counts as a
        repeat.
        """
        with self._lock:
            return self._sight(hash((table, signature))) is not None

    def put(
        self,
        table: str,
        version: int,
        signature: tuple,
        value: Any,
        end: tuple | None = None,
    ) -> None:
        """Store a copy of ``value``; evicts LRU entries over budget.

        A value too large for the whole budget is simply not admitted.
        ``end`` is the table's heap end the staging covers; with it the
        staging replaces any older one of the same ``(table,
        signature)`` and may later be extended (:meth:`newest`).
        """
        self._store((table, version, signature), (table,), value, end)

    def newest(self, table: str, signature: tuple) -> tuple | None:
        """``(version, end, value)`` of the newest staging of ``(table,
        signature)`` banked with its heap end, or None.

        ``value`` is the cache's own copy, not a private one: read it,
        never mutate it.  Stored values are never mutated in place, so
        reading it outside the lock is safe.
        """
        with self._lock:
            newest = self._newest.get((table, signature))
            if newest is None:
                return None
            version, end = newest
            return version, end, self._entries[(table, version, signature)][0]

    def put_extended(
        self,
        table: str,
        version: int,
        signature: tuple,
        value: Any,
        end: tuple,
    ) -> Any:
        """Bank an extended staging in place of the one it extends;
        returns a private copy of it.

        Takes ``value`` over without copying it: the caller built it
        and keeps no reference.
        """
        with self._lock:
            self._extended += 1
        self._store(
            (table, version, signature), (table,), value, end, copy=False
        )
        return _copy_staged(value)

    # -- answers -------------------------------------------------------------
    def recall(
        self, token: int, params: str, versions: tuple
    ) -> tuple[list | None, bool, bool]:
        """Look a statement's answer up: ``(rows, stale, banks)``.

        ``rows`` is a private copy on a hit, else None.  On a miss,
        ``stale`` says an answer for ``(token, params)`` was banked
        before, and ``banks`` that this is at least its second sighting,
        so the run should :meth:`bank` what it computes.
        """
        key = (token, params, versions)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                banked = self._sight(hash((token, params)))
                if banked:
                    self._stale += 1
                return None, bool(banked), banked is not None
            self._entries.move_to_end(key)
            self._hits += 1
            self._answers += 1
            self._mark_banked(hash((token, params)))
        return list(entry[0]), False, False

    def bank(
        self, token: int, params: str, versions: tuple, rows: list
    ) -> None:
        """Keep a copy of a statement's answer under ``versions``."""
        if self._store(
            (token, params, versions),
            tuple(name for name, _ in versions),
            rows,
        ):
            with self._lock:
                self._mark_banked(hash((token, params)))

    # -- shared machinery ----------------------------------------------------
    def _sight(self, key: int) -> bool | None:
        """Record a sighting (lock held): None for the first, else
        whether an answer banked under it."""
        banked = self._sightings.get(key)
        if banked is not None:
            self._admitted += 1
            return banked
        self._first_sightings += 1
        self._sightings[key] = False
        self._trim_sightings()
        return None

    def _mark_banked(self, key: int) -> None:
        """Mark a sighting banked and make it the newest (lock held):
        a hot answer keeps its marker however many keys are sighted
        after it."""
        self._sightings[key] = True
        self._sightings.move_to_end(key)
        self._trim_sightings()

    def _trim_sightings(self) -> None:
        if len(self._sightings) > SIGHTINGS_CAPACITY:
            self._sightings.popitem(last=False)
            self._sighting_evictions += 1

    def _store(
        self,
        key: tuple,
        tables: tuple,
        value: Any,
        end: tuple | None = None,
        copy: bool = True,
    ) -> bool:
        """Store (a copy of) ``value`` under ``key``; whether it fit."""
        size = _approx_bytes(value)
        if size > self.capacity_bytes:
            return False
        if copy:
            value = _copy_staged(value)
        with self._lock:
            self._drop(key)
            if end is not None:
                table, version, signature = key
                older = self._newest.get((table, signature))
                if older is not None:
                    self._drop((table, older[0], signature))
                self._newest[(table, signature)] = (version, end)
            self._entries[key] = (value, size, tables)
            for table in tables:
                self._by_table.setdefault(table, set()).add(key)
            self._bytes += size
            while self._bytes > self.capacity_bytes and len(self._entries) > 1:
                self._drop(next(iter(self._entries)))
                self._evictions += 1
        return True

    def _drop(self, key: tuple) -> bool:
        """Remove one entry and its index slots (lock held)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        _, size, tables = entry
        self._bytes -= size
        for table in tables:
            keys = self._by_table[table]
            keys.discard(key)
            if not keys:
                del self._by_table[table]
        if _is_staging(key):
            table, version, signature = key
            newest = self._newest.get((table, signature))
            if newest is not None and newest[0] == version:
                del self._newest[(table, signature)]
        return True

    def invalidate_table(
        self, table: str | None, stagings: bool = True
    ) -> int:
        """Drop every entry that reads one table (or all with ``None``).

        DML makes old-version entries unreachable on its own; this
        frees their memory eagerly.  After an append pass
        ``stagings=False``: the table's stagings stay to be extended,
        only the answers that read it go.  DDL *must* call it (or
        :meth:`clear`): a dropped-and-recreated table restarts its
        version epoch at zero, which would otherwise alias old entries.
        """
        with self._lock:
            if table is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._by_table.clear()
                self._newest.clear()
                self._bytes = 0
            else:
                doomed = [
                    key
                    for key in self._by_table.get(table, ())
                    if stagings or not _is_staging(key)
                ]
                dropped = sum(self._drop(key) for key in doomed)
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
                answers=self._answers,
                stale=self._stale,
                extended=self._extended,
            )


def _is_staging(key: tuple) -> bool:
    """A staging key starts with its table's name, an answer key with
    the query's int token."""
    return isinstance(key[0], str)
