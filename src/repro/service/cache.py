"""A cost-aware plan/code cache with hit statistics and invalidation.

Entries are opaque to the cache (the service stores compiled HIQUE
queries for the code-generating engines and normalized ASTs for the
interpreting ones); the cache contributes recency ordering, bounded
capacity, per-entry accounting, and thread safety.  Statistics make the
paper's amortization argument measurable: every hit records how many
seconds of preparation (Table III's parse + optimize + generate +
compile) the cache just avoided.

Admission is **cost-aware** rather than pure LRU: when the cache is
full, the evicted entry is the one with the lowest
``preparation_seconds_saved / size_bytes`` score — an entry that has
repeatedly saved expensive compilation earns its bytes; one that never
hit scores zero regardless of recency.  Ties (most commonly a set of
never-hit entries) break in LRU order, so the cold end still turns
over oldest-first.

All per-entry counters — ``hits`` and ``seconds_saved`` — are mutated
exclusively under the cache lock, in the same critical section that
refreshes recency, so concurrent sessions never drop an increment.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

#: Human-readable admission policy, surfaced through ``CacheStats``.
POLICY = "cost-aware (seconds saved / size, LRU tie-break)"


@dataclass
class CacheStats:
    """A point-in-time snapshot of cache effectiveness."""

    capacity: int
    size: int
    hits: int
    misses: int
    evictions: int
    invalidations: int
    #: Preparation seconds the hits avoided (sum of each hit entry's cost).
    seconds_saved: float
    #: The admission/eviction policy in force.
    policy: str = POLICY

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class CacheEntry:
    """One cached plan plus its accounting."""

    key: Hashable
    value: Any
    #: What it cost to build this entry (seconds of preparation); each
    #: hit adds this to the cache-wide ``seconds_saved`` figure.
    cost_seconds: float = 0.0
    #: Footprint estimate (generated serial source bytes for code plans,
    #: statement key bytes otherwise).
    size_bytes: int = 1
    hits: int = 0
    #: Preparation seconds this entry's hits have avoided so far.
    seconds_saved: float = 0.0
    #: ``(table, row count)`` pairs the cached value was optimized
    #: against (lowercased names), for display: the owner of the cache
    #: decides when a drifted count makes the entry stale.
    deps: tuple[tuple[str, int], ...] = ()

    @property
    def score(self) -> float:
        """The admission score: seconds saved per byte retained."""
        return self.seconds_saved / max(self.size_bytes, 1)


class PlanCache:
    """A thread-safe, cost-aware cache keyed on normalized statements.

    ``capacity`` bounds the number of entries; inserting into a full
    cache evicts the lowest-scoring entry (see :data:`POLICY`), with
    LRU breaking ties.  ``invalidate()`` drops entries wholesale — the
    service calls it from the catalogue's change listener, since any
    DDL or statistics refresh can change both plan shape and plan
    choice.
    """

    def __init__(self, capacity: int = 64):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._seconds_saved = 0.0

    # -- core operations ---------------------------------------------------------
    def get(self, key: Hashable) -> CacheEntry | None:
        """The entry under ``key`` (refreshed to most recent), or None.

        Counts toward hit/miss statistics — call this once per
        *execution*, and :meth:`peek` for introspection, or the stats
        overstate how much preparation the cache avoided.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            # Recency, the per-entry counters and the cache-wide tally
            # all update in this one critical section, so concurrent
            # sessions cannot interleave and drop increments.
            self._entries.move_to_end(key)
            entry.hits += 1
            entry.seconds_saved += entry.cost_seconds
            self._hits += 1
            self._seconds_saved += entry.cost_seconds
            return entry

    def peek(self, key: Hashable) -> CacheEntry | None:
        """Like :meth:`get` (refreshes recency) but without touching
        hit/miss accounting."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(
        self,
        key: Hashable,
        value: Any,
        cost_seconds: float = 0.0,
        size_bytes: int = 1,
        deps: tuple[tuple[str, int], ...] = (),
    ) -> CacheEntry:
        """Insert (or replace) an entry, evicting low-score entries if
        full.  The entry being inserted is never its own victim."""
        with self._lock:
            entry = CacheEntry(
                key=key,
                value=value,
                cost_seconds=cost_seconds,
                size_bytes=size_bytes,
                deps=deps,
            )
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                del self._entries[self._pick_victim(exclude=key)]
                self._evictions += 1
            return entry

    def _pick_victim(self, exclude: Hashable) -> Hashable:
        """Lowest score wins eviction; LRU order breaks ties.

        Caller holds the lock.  Iterating LRU→MRU with a strict ``<``
        keeps the least recently used of any scoring tie, which
        degenerates to classic LRU while no entry has ever hit.  Scores
        are never negative, so the first zero in that order is the
        victim and the scan stops there: a cache of never-hit entries
        evicts in O(1).
        """
        victim_key = None
        victim_score = None
        for key, entry in self._entries.items():  # LRU → MRU
            if key == exclude:
                continue
            score = entry.score
            if score == 0:
                return key
            if victim_score is None or score < victim_score:
                victim_key, victim_score = key, score
        assert victim_key is not None  # capacity >= 1 and exclude is MRU
        return victim_key

    def invalidate(self, key: Hashable | None = None) -> int:
        """Drop one entry (or all of them); returns how many were dropped."""
        with self._lock:
            if key is not None:
                dropped = 1 if self._entries.pop(key, None) is not None else 0
            else:
                dropped = len(self._entries)
                self._entries.clear()
            self._invalidations += dropped
            return dropped

    # -- introspection -------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def entries(self) -> list[CacheEntry]:
        """Entries in LRU→MRU order (snapshot; safe to iterate)."""
        with self._lock:
            return list(self._entries.values())

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                capacity=self.capacity,
                size=len(self._entries),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                seconds_saved=self._seconds_saved,
            )
