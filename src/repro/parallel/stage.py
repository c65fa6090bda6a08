"""What stands between a scan and its page walk, and the serial walk.

Two things can answer a :class:`~repro.plan.descriptors.ScanStage`
without scanning the table: the generated index probe (a point or
narrow range read fetches just the hit pages) and the version-keyed
:class:`~repro.parallel.intermediates.IntermediateCache` (a staging
already built from these pages and parameters).  :class:`StageAccess`
is that step, once, for both ways a plan executes: the scheduler's
morsel-parallel scan and :func:`serial_walk`, the plan-order walk over
the serial generated functions that runs whenever threads would have
nothing to overlap.
"""

from __future__ import annotations

import time

from repro.core.executor import build_context
from repro.obs import current_span, maybe_span
from repro.parallel.stats import PhaseStats
from repro.plan.descriptors import (
    Aggregate,
    Join,
    Limit,
    MultiwayJoin,
    Project,
    Restage,
    ScanStage,
    Sort,
)

#: Canonical phase order for reporting.
PHASE_ORDER = ("stage", "join", "aggregate", "final")

PHASE_OF = {
    ScanStage: "stage",
    Restage: "stage",
    Join: "join",
    MultiwayJoin: "join",
    Aggregate: "aggregate",
    Project: "final",
    Sort: "final",
    Limit: "final",
}

_MISS = object()


class Staged:
    """One scan's answer: the staged rows, or a miss that may bank."""

    __slots__ = ("value", "_cache", "_key")

    def __init__(self, value=_MISS, cache=None, key=None):
        self.value = value
        self._cache = cache
        self._key = key

    @property
    def found(self) -> bool:
        return self.value is not _MISS

    def bank(self, staged) -> None:
        """Keep what the scan staged, if the lookup earned it a place."""
        if self._key is not None:
            self._cache.put(*self._key, staged)


class StageAccess:
    """One run's index-probe and intermediate-cache step.

    ``note`` receives the run-level remarks ("index: 3 rids", "staging
    reused …"); the per-operator span attributes EXPLAIN ANALYZE reads
    go on the active node span directly.
    """

    def __init__(self, prepared, ctx, params, cache, min_pages, note):
        self.namespace = prepared.compiled.namespace
        self.names = prepared.generated.function_names
        self.ctx = ctx
        self.params = params
        self.cache = cache
        self.min_pages = min_pages
        self.note = note

    def lookup(self, op: ScanStage, bankable: bool = True) -> Staged:
        """Answer ``op`` from the index or the cache, else a miss.

        The probe runs first: when the index accepts, the generated
        fetch reads just the hit pages and nothing is banked.  The
        cache is consulted only for a staging worth banking — the
        caller's ``bankable`` (a fused or incrementally handed-off scan
        has no complete staging to keep) and at least ``min_pages``
        read — and a miss earns a place from its second sighting.
        """
        table = op.table
        if op.index is not None:
            name = self.names[op.op_id]
            hit = self.namespace[name + "_probe"](self.ctx)
            if hit.rids is None:
                outcome = (
                    f"index declined: {hit.matched} > {hit.cutoff}, scanned"
                )
            else:
                outcome = f"index: {hit.matched} rids"
            self.note(f"table {op.binding!r}: {outcome}")
            _mark_node(index=outcome)
            if hit.rids is not None:
                return Staged(
                    self.namespace[name + "_fetch"](self.ctx, hit.rids)
                )
        cache = self.cache
        if cache is None or not bankable or table.num_pages < self.min_pages:
            return Staged()
        name = table.name.lower()
        signature = op.staging_shape + (self.params,)
        staged = cache.get(name, table.version, signature)
        if staged is not None:
            self.note(
                f"table {op.binding!r}: staging reused a cached "
                f"intermediate (version {table.version})"
            )
            _mark_node(staging_cached=True)
            return Staged(staged)
        if cache.sighted(name, signature):
            return Staged(cache=cache, key=(name, table.version, signature))
        return Staged()


def _mark_node(**attrs) -> None:
    span = current_span()
    if span is not None and span.category == "node":
        span.set(**attrs)


def result_rows(result) -> int | None:
    """Row count of a node result when it is a plain row list.

    Staged results may instead be partition dicts or coarse partition
    lists; those report no row count rather than a misleading one.
    """
    if isinstance(result, list) and (
        not result or isinstance(result[0], tuple)
    ):
        return len(result)
    return None


def serial_walk(
    prepared, params: tuple, cache, min_pages: int
) -> tuple[list[tuple], list[PhaseStats], list[str]]:
    """Run the plan's serial generated functions in plan order.

    The calling thread does all of it — no morsels, no task batches,
    no driver threads — but scans still go through
    :class:`StageAccess`, so warm stagings and index probes are served
    exactly as on a scheduled run.  Returns ``(rows, phases, notes)``
    with one single-worker :class:`PhaseStats` per phase that ran.
    """
    plan = prepared.plan
    namespace = prepared.compiled.namespace
    names = prepared.generated.function_names
    ctx = build_context(
        plan, opt_level=prepared.compiled.opt_level, params=params
    )
    notes: list[str] = []
    access = StageAccess(
        prepared, ctx, params, cache, min_pages, notes.append
    )
    results: dict[int, object] = {}
    seconds: dict[str, float] = {}

    def run(op):
        fn = namespace[names[op.op_id]]
        if not isinstance(op, ScanStage):
            return fn(ctx, *[results[input_id] for input_id in op.inputs])
        answer = access.lookup(op)
        if answer.found:
            return answer.value
        staged = fn(ctx)
        answer.bank(staged)
        return staged

    traced = current_span() is not None
    for op in plan.operators:
        started = time.perf_counter()
        if traced:
            # One node span per operator, so EXPLAIN ANALYZE annotates
            # a declined run operator by operator like a scheduled one.
            with maybe_span(
                f"{type(op).__name__} o{op.op_id}", "node",
                op_ids=str(op.op_id),
            ) as span:
                value = run(op)
                rows = result_rows(value)
                if rows is not None:
                    span.set(rows=rows)
        else:
            value = run(op)
        results[op.op_id] = value
        phase = PHASE_OF[type(op)]
        seconds[phase] = (
            seconds.get(phase, 0.0) + time.perf_counter() - started
        )
    phases = [
        PhaseStats(name=name, seconds=seconds[name])
        for name in PHASE_ORDER
        if name in seconds
    ]
    return results[plan.root.op_id], phases, notes
