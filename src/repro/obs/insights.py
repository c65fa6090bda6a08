"""Workload insights: query digests, slow-query log, folded profiles.

The pg_stat_statements analogue for this engine.  PR 6's tracer and
registry answer per-query questions; this module aggregates *across*
queries so operators can ask which normalized statements dominate
total time, which ones error or wedge, and what the slowest
executions actually did:

* :class:`DigestStore` — statements keyed by ``(engine kind, canonical
  SQL)``.  The canonical text comes from the service's literal
  parameterization (``sql/parameters.py``), so ``WHERE id = 1`` and
  ``WHERE id = 2`` land in one digest, exactly as they share one
  cached plan.  Bounded LRU; DDL resets it wholesale, mirroring the
  plan cache's blanket invalidation (digests describe plans that no
  longer exist).
* :class:`SlowQueryLog` — retains the *top-N slowest* executions over
  the ``REPRO_SLOW_MS`` threshold, keeping the full span tree when
  tracing recorded one, so a slow statement can be rendered
  EXPLAIN-ANALYZE-style after the fact.  Bounded: a 10k-query run
  holds at most ``keep`` traces.
* :class:`WorkloadInsights` — owns both plus a
  :class:`~repro.obs.profile.ProfileAggregator` fed by a tracer
  listener, surfaces everything through the registry's collector
  pattern, and renders the shell's ``.insights`` / ``.slow`` views.

The record path is deliberately allocation-light (one lock, integer
adds, one histogram observe; the caller keeps the digest it folded
into, so a repeat skips the lookup) because it runs on *every* query.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profile import ProfileAggregator
from repro.obs.trace import Trace, Tracer

__all__ = [
    "DEFAULT_SLOW_MS",
    "SLOW_MS_ENV",
    "Digest",
    "DigestStore",
    "SlowQueryEntry",
    "SlowQueryLog",
    "WorkloadInsights",
    "default_slow_threshold_seconds",
]

#: Environment knob: queries slower than this many milliseconds enter
#: the slow-query log (default :data:`DEFAULT_SLOW_MS`).
SLOW_MS_ENV = "REPRO_SLOW_MS"
DEFAULT_SLOW_MS = 100.0


def default_slow_threshold_seconds() -> float:
    raw = os.environ.get(SLOW_MS_ENV, "").strip()
    if raw:
        try:
            return max(0.0, float(raw)) / 1000.0
        except ValueError:
            pass
    return DEFAULT_SLOW_MS / 1000.0


#: Per-digest latency buckets: the registry's 1 µs – 10 s ladder.
def _digest_id(engine_kind: str, key: str) -> str:
    return hashlib.blake2b(
        f"{engine_kind}\x00{key}".encode("utf-8"), digest_size=6
    ).hexdigest()


class Digest:
    """Aggregated execution statistics for one normalized statement."""

    __slots__ = (
        "engine_kind",
        "key",
        "digest_id",
        "calls",
        "errors",
        "rows",
        "total_seconds",
        "min_seconds",
        "max_seconds",
        "cache_hits",
        "cache_lookups",
        "pages_hit",
        "pages_missed",
        "tables",
        "first_seen",
        "last_seen",
        "live",
        "store_key",
        "_hist",
    )

    def __init__(self, engine_kind: str, key: str):
        self.engine_kind = engine_kind
        self.key = key
        self.store_key = (engine_kind, key)
        #: False once the store dropped this digest (reset or LRU
        #: eviction): a caller holding it must fold into a new one.
        self.live = True
        self.digest_id = _digest_id(engine_kind, key)
        #: Lowercased table names the statement touches; lets DML
        #: invalidation reset only the digests it actually staled.
        self.tables: tuple[str, ...] = ()
        self.calls = 0
        self.errors = 0
        self.rows = 0
        self.total_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0
        #: Plan-cache accounting is split into lookups and hits because
        #: not every call consults the cache (interpreting engines'
        #: execute path does, but errors may abort before the lookup).
        self.cache_hits = 0
        self.cache_lookups = 0
        self.pages_hit = 0
        self.pages_missed = 0
        self.first_seen = time.time()
        self.last_seen = self.first_seen
        self._hist = Histogram("digest_seconds", ())

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    @property
    def p95_seconds(self) -> float:
        return self._hist.percentile(0.95)

    @property
    def cache_hit_rate(self) -> float:
        if not self.cache_lookups:
            return 0.0
        return self.cache_hits / self.cache_lookups

    def to_dict(self) -> dict[str, Any]:
        return {
            "digest": self.digest_id,
            "engine": self.engine_kind,
            "statement": self.key,
            "calls": self.calls,
            "errors": self.errors,
            "rows": self.rows,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "p95_seconds": self.p95_seconds,
            "min_seconds": (
                0.0 if self.min_seconds == float("inf") else self.min_seconds
            ),
            "max_seconds": self.max_seconds,
            "cache_hits": self.cache_hits,
            "cache_lookups": self.cache_lookups,
            "pages_hit": self.pages_hit,
            "pages_missed": self.pages_missed,
            "tables": list(self.tables),
        }


class DigestStore:
    """Bounded LRU of :class:`Digest` entries, keyed by canonical SQL."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("digest store capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._digests: "OrderedDict[tuple[str, str], Digest]" = OrderedDict()
        self.evictions = 0
        self.resets = 0
        #: Fine-grained (single-table) resets, counted separately so
        #: the wholesale counter keeps meaning "DDL happened".
        self.scoped_resets = 0
        #: Calls recorded since construction — survives resets, so the
        #: hammer tests can reconcile totals across DDL.
        self.recorded = 0

    def record(
        self,
        engine_kind: str,
        key: str,
        seconds: float,
        rows: int = 0,
        error: bool = False,
        cache_hit: bool | None = None,
        pages_hit: int = 0,
        pages_missed: int = 0,
        tables: tuple[str, ...] = (),
    ) -> Digest:
        """Fold one execution into the statement's digest."""
        return self.fold(
            None, engine_kind, key, tables, seconds, rows, error,
            cache_hit, pages_hit, pages_missed,
        )

    def fold(
        self,
        digest: Digest | None,
        engine_kind: str,
        key: str,
        tables: tuple[str, ...],
        seconds: float,
        rows: int,
        error: bool,
        cache_hit: bool | None,
        pages_hit: int,
        pages_missed: int,
    ) -> Digest:
        """Fold one execution into the statement's digest (hot path).

        ``digest`` is the one an earlier fold of the same statement
        returned, or None; while it is live, the fold skips the lookup.
        Returns the digest folded into, for the caller to keep.
        """
        with self._lock:
            if digest is None or not digest.live:
                digest = self._digests.get((engine_kind, key))
            if digest is None:
                digest = Digest(engine_kind, key)
                if tables:
                    digest.tables = tables
                self._digests[digest.store_key] = digest
                while len(self._digests) > self.capacity:
                    self._digests.popitem(last=False)[1].live = False
                    self.evictions += 1
            else:
                self._digests.move_to_end(digest.store_key)
            self.recorded += 1
            digest.calls += 1
            digest.rows += rows
            digest.total_seconds += seconds
            if seconds < digest.min_seconds:
                digest.min_seconds = seconds
            if seconds > digest.max_seconds:
                digest.max_seconds = seconds
            if error:
                digest.errors += 1
            if cache_hit is not None:
                digest.cache_lookups += 1
                if cache_hit:
                    digest.cache_hits += 1
            digest.pages_hit += pages_hit
            digest.pages_missed += pages_missed
            digest.last_seen = time.time()
        digest._hist.observe(seconds)
        return digest

    def get(self, engine_kind: str, key: str) -> Digest | None:
        with self._lock:
            return self._digests.get((engine_kind, key))

    def top(self, limit: int = 10) -> list[Digest]:
        """Digests ranked by total time, heaviest first."""
        with self._lock:
            digests = list(self._digests.values())
        digests.sort(key=lambda d: d.total_seconds, reverse=True)
        return digests[:limit]

    def __len__(self) -> int:
        with self._lock:
            return len(self._digests)

    def reset(self, table: str | None = None) -> None:
        """Drop stale digests after a catalogue change.

        With no ``table`` (DDL, ``analyze``): drop everything — schema
        offsets, algorithm choices and latencies may all differ
        afterwards, so keeping the old numbers under the same key would
        blend two different plans.  With a ``table`` (DML): drop only
        the digests whose recorded table set names it, mirroring the
        plan cache's fine-grained invalidation — statistics for
        statements over other tables describe plans that still stand.
        """
        with self._lock:
            if table is None:
                if self._digests:
                    self.resets += 1
                for digest in self._digests.values():
                    digest.live = False
                self._digests.clear()
                return
            doomed = [
                key
                for key, digest in self._digests.items()
                if table in digest.tables
            ]
            for key in doomed:
                self._digests.pop(key).live = False
            if doomed:
                self.scoped_resets += 1


@dataclass
class SlowQueryEntry:
    """One retained slow execution (span tree kept when traced)."""

    seconds: float
    engine_kind: str
    key: str
    wall_time: float
    rows: int = 0
    error: str = ""
    trace: Trace | None = field(default=None, repr=False)


class SlowQueryLog:
    """Top-N slowest queries over a threshold, bounded memory.

    A min-heap on elapsed seconds keeps exactly the ``keep`` slowest
    entries seen so far; everything below the current floor is dropped
    in O(1), so a 10k-query run retains at most ``keep`` span trees.
    """

    def __init__(
        self, threshold_seconds: float | None = None, keep: int = 16
    ):
        if keep < 1:
            raise ValueError("slow-query log must keep at least one entry")
        self.threshold_seconds = (
            default_slow_threshold_seconds()
            if threshold_seconds is None
            else threshold_seconds
        )
        self.keep = keep
        self._lock = threading.Lock()
        #: (seconds, tiebreak, entry) — the counter keeps heapq from
        #: ever comparing two SlowQueryEntry objects.
        self._heap: list[tuple[float, int, SlowQueryEntry]] = []
        self._tiebreak = itertools.count()
        self.observed = 0

    def record(
        self,
        seconds: float,
        engine_kind: str,
        key: str,
        rows: int = 0,
        error: str = "",
        trace: Trace | None = None,
    ) -> bool:
        """Consider one execution; True when it was retained."""
        if seconds < self.threshold_seconds:
            return False
        with self._lock:
            self.observed += 1
            if len(self._heap) >= self.keep and seconds <= self._heap[0][0]:
                return False
            entry = SlowQueryEntry(
                seconds=seconds,
                engine_kind=engine_kind,
                key=key,
                wall_time=time.time(),
                rows=rows,
                error=error,
                trace=trace,
            )
            item = (seconds, next(self._tiebreak), entry)
            if len(self._heap) >= self.keep:
                heapq.heappushpop(self._heap, item)
            else:
                heapq.heappush(self._heap, item)
        return True

    def entries(self) -> list[SlowQueryEntry]:
        """Retained entries, slowest first."""
        with self._lock:
            items = list(self._heap)
        items.sort(key=lambda item: item[0], reverse=True)
        return [entry for _, _, entry in items]

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()

    def render_text(self, limit: int = 10) -> str:
        entries = self.entries()[:limit]
        header = (
            f"slow-query log: threshold "
            f"{self.threshold_seconds * 1000:.1f}ms "
            f"({SLOW_MS_ENV}), observed {self.observed}, "
            f"retained {len(self)} (keep {self.keep})"
        )
        if not entries:
            return header
        lines = [header]
        for rank, entry in enumerate(entries, start=1):
            spans = (
                sum(1 for _ in entry.trace.root.walk())
                if entry.trace is not None
                else 0
            )
            detail = f"rows={entry.rows}"
            if entry.error:
                detail = f"error={entry.error[:60]}"
            suffix = f" spans={spans}" if spans else ""
            lines.append(
                f"{rank:>3}. {entry.seconds * 1000:9.2f}ms "
                f"[{entry.engine_kind}] {detail}{suffix}  {entry.key[:90]}"
            )
        return "\n".join(lines)


class WorkloadInsights:
    """Digests + slow log + folded profiles behind one switch.

    Owned by a :class:`~repro.api.Database`; the service layer calls
    :meth:`record` on every execution.  Registers a tracer listener so
    any trace recorded anywhere (``.trace on``, ``EXPLAIN ANALYZE``,
    ``REPRO_TRACE=1``) feeds the operator profile, and a registry
    collector so the digest catalogue shows up in ``metrics_text()``.
    """

    #: Digests exported to the metrics registry per render (the full
    #: catalogue stays available through :meth:`digests.top`).
    METRICS_TOP = 20

    def __init__(
        self,
        obs,
        enabled: bool = True,
        digest_capacity: int = 256,
        slow_keep: int = 16,
        slow_threshold_seconds: float | None = None,
    ):
        self.obs = obs
        self.enabled = enabled
        self.digests = DigestStore(capacity=digest_capacity)
        self.slow = SlowQueryLog(
            threshold_seconds=slow_threshold_seconds, keep=slow_keep
        )
        self.profile = ProfileAggregator()
        #: Zero-arg callable yielding the owning database's
        #: intermediate-cache stats (wired by :class:`repro.api.Database`);
        #: None for bare harnesses without one.
        self.intermediates_source = None
        self._closed = False
        tracer: Tracer = obs.tracer
        tracer.add_trace_listener(self._on_trace)
        registry: MetricsRegistry = obs.registry
        registry.register_collector(self._collect)

    # -- recording -----------------------------------------------------------
    def record(
        self,
        engine_kind: str,
        key: str,
        seconds: float,
        rows: int = 0,
        error: BaseException | None = None,
        cache_hit: bool | None = None,
        pages_hit: int = 0,
        pages_missed: int = 0,
        trace: Trace | None = None,
        tables: tuple[str, ...] = (),
        digest: Digest | None = None,
    ) -> Digest | None:
        """Fold one service-layer execution into every store.

        ``digest`` is what the previous record of the same statement
        returned (see :meth:`DigestStore.fold`); the return value is
        the digest to pass next time, or None when recording is off.
        """
        if not self.enabled:
            return None
        digest = self.digests.fold(
            digest,
            engine_kind,
            key,
            tables,
            seconds,
            rows,
            error is not None,
            cache_hit,
            pages_hit,
            pages_missed,
        )
        if seconds >= self.slow.threshold_seconds:
            self.slow.record(
                seconds,
                engine_kind,
                key,
                rows=rows,
                error=str(error) if error is not None else "",
                trace=trace,
            )
        return digest

    def _on_trace(self, trace: Trace) -> None:
        if self.enabled:
            self.profile.add_trace(trace)

    def on_catalog_change(
        self, table: str | None = None, kind: str = "ddl"
    ) -> None:
        """A catalogue mutation happened: reset what it staled.

        Mirrors the plan cache: DML on a named table drops only that
        table's digests, DDL/``analyze`` resets wholesale.
        """
        if kind == "dml" and table is not None:
            self.digests.reset(table)
        else:
            self.digests.reset()

    def reset(self) -> None:
        self.digests.reset()
        self.slow.clear()
        self.profile.reset()

    # -- metrics -------------------------------------------------------------
    def _collect(self, registry: MetricsRegistry) -> None:
        registry.sample("repro_digest_store_size", len(self.digests))
        registry.sample(
            "repro_digest_store_capacity", self.digests.capacity
        )
        registry.sample(
            "repro_digest_store_evictions_total", self.digests.evictions
        )
        registry.sample(
            "repro_digest_store_resets_total", self.digests.resets
        )
        registry.sample(
            "repro_digest_store_recorded_total", self.digests.recorded
        )
        registry.sample("repro_slow_queries_total", self.slow.observed)
        registry.sample("repro_slow_queries_retained", len(self.slow))
        registry.sample(
            "repro_profile_traces_folded_total", self.profile.traces
        )
        for digest in self.digests.top(self.METRICS_TOP):
            labels = {
                "digest": digest.digest_id,
                "engine": digest.engine_kind,
                "statement": digest.key[:120],
            }
            registry.sample(
                "repro_digest_calls_total", digest.calls, **labels
            )
            registry.sample(
                "repro_digest_errors_total", digest.errors, **labels
            )
            registry.sample(
                "repro_digest_seconds_total",
                digest.total_seconds,
                **labels,
            )
            registry.sample(
                "repro_digest_rows_total", digest.rows, **labels
            )

    # -- rendering -----------------------------------------------------------
    def render_text(
        self, top: int = 10, include_profile: bool = True
    ) -> str:
        """The ``.insights`` view: digest table + slow log + profile."""
        digests = self.digests.top(top)
        calls = sum(d.calls for d in digests)
        errors = sum(d.errors for d in digests)
        lines = [
            f"workload insights: {len(self.digests)} statement(s), "
            f"{self.digests.recorded} call(s) recorded "
            f"(capacity {self.digests.capacity}, "
            f"evictions {self.digests.evictions}, "
            f"resets {self.digests.resets})"
        ]
        if not digests:
            lines.append("(no executions recorded yet)")
        else:
            lines.append(
                f"top {len(digests)}: {calls} call(s), {errors} error(s)"
            )
            lines.append(
                f"{'digest':<12} {'engine':<10} {'calls':>6} {'err':>4} "
                f"{'mean ms':>9} {'p95 ms':>9} {'rows':>9} "
                f"{'hit%':>5} statement"
            )
            for digest in digests:
                hit_rate = (
                    f"{digest.cache_hit_rate * 100:.0f}"
                    if digest.cache_lookups
                    else "-"
                )
                lines.append(
                    f"{digest.digest_id:<12} {digest.engine_kind:<10} "
                    f"{digest.calls:>6} {digest.errors:>4} "
                    f"{digest.mean_seconds * 1000:>9.3f} "
                    f"{digest.p95_seconds * 1000:>9.3f} "
                    f"{digest.rows:>9} {hit_rate:>5} "
                    f"{digest.key[:70]}"
                )
        inter = self._intermediate_stats()
        if inter is not None:
            lines.append(
                f"intermediate cache: {inter.entries} entr(ies), "
                f"{inter.bytes / 1024:.0f} KiB of "
                f"{inter.capacity_bytes / 1024:.0f} KiB, "
                f"{inter.hits} hit(s) / {inter.misses} miss(es) "
                f"({inter.hit_rate * 100:.0f}%), "
                f"{inter.answers} answer(s) recycled, "
                f"{inter.stale} stale, "
                f"{inter.extended} extended, "
                f"{inter.evictions} eviction(s), "
                f"{inter.invalidations} invalidation(s)"
            )
        lines.append("")
        lines.append(self.slow.render_text(limit=min(top, 10)))
        if include_profile and self.profile.traces:
            lines.append("")
            lines.append(self.profile.render_text())
        return "\n".join(lines)

    def _intermediate_stats(self):
        source = self.intermediates_source
        if source is None:
            return None
        try:
            return source()
        except Exception:  # noqa: BLE001 - stats are advisory
            return None

    # -- introspection / lifecycle ------------------------------------------
    def snapshot(self, top: int = 10) -> dict[str, Any]:
        """JSON-friendly summary (drives tests and tooling)."""
        result = {
            "statements": len(self.digests),
            "recorded": self.digests.recorded,
            "evictions": self.digests.evictions,
            "resets": self.digests.resets,
            "scoped_resets": self.digests.scoped_resets,
            "digests": [d.to_dict() for d in self.digests.top(top)],
            "slow": {
                "threshold_seconds": self.slow.threshold_seconds,
                "observed": self.slow.observed,
                "retained": len(self.slow),
            },
            "profile_traces": self.profile.traces,
        }
        inter = self._intermediate_stats()
        if inter is not None:
            result["intermediate_cache"] = {
                "entries": inter.entries,
                "bytes": inter.bytes,
                "capacity_bytes": inter.capacity_bytes,
                "hits": inter.hits,
                "misses": inter.misses,
                "answers": inter.answers,
                "stale": inter.stale,
                "extended": inter.extended,
                "evictions": inter.evictions,
                "invalidations": inter.invalidations,
            }
        return result

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.obs.tracer.remove_trace_listener(self._on_trace)
        self.obs.registry.unregister_collector(self._collect)
