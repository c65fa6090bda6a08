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
    """One scan's answer: the staged rows, or a miss that may bank.

    ``why`` names the path: "index fetch" or "cache hit" for an
    answer; "second sighting" for a miss that banks; for one that does
    not, "first sighting", "below min_pages", "no cache" or "not
    bankable".
    """

    __slots__ = ("value", "why", "_cache", "_key")

    def __init__(self, why, value=_MISS, cache=None, key=None):
        self.value = value
        self.why = why
        self._cache = cache
        self._key = key

    @property
    def found(self) -> bool:
        return self.value is not _MISS

    @property
    def banks(self) -> bool:
        """Whether :meth:`bank` will keep what the scan stages."""
        return self._key is not None

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
                    "index fetch",
                    self.namespace[name + "_fetch"](self.ctx, hit.rids),
                )
        cache = self.cache
        if cache is None:
            return Staged("no cache")
        if not bankable:
            return Staged("not bankable")
        if table.num_pages < self.min_pages:
            return Staged("below min_pages")
        name = table.name.lower()
        signature = op.staging_shape + (self.params,)
        staged = cache.get(name, table.version, signature)
        if staged is not None:
            self.note(
                f"table {op.binding!r}: staging reused a cached "
                f"intermediate (version {table.version})"
            )
            _mark_node(staging_cached=True)
            return Staged("cache hit", staged)
        if cache.sighted(name, signature):
            return Staged(
                "second sighting",
                cache=cache,
                key=(name, table.version, signature),
            )
        return Staged("first sighting")


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
    exactly as on a scheduled run.  A scan whose consumer fuses
    (:meth:`~repro.plan.descriptors.PhysicalPlan.fusable_consumer`)
    runs the generated ``<consumer>_scan`` instead whenever the lookup
    misses without banking: the staging would be dropped right after
    the consumer walks it, so it is never built.  Returns ``(rows,
    phases, notes)`` with one single-worker :class:`PhaseStats` per
    phase that ran (a fused step counts as staging).
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
    #: scan op id → the consumer its generated ``_scan`` entry feeds.
    fusable = {}
    for op in plan.operators:
        consumer = plan.fusable_consumer(op)
        if consumer is not None and (
            names[consumer.op_id] + "_scan" in namespace
        ):
            fusable[op.op_id] = consumer

    def run(op) -> tuple[int, object]:
        """``(op id answered, result)``: a fused scan answers its
        consumer."""
        fn = namespace[names[op.op_id]]
        if not isinstance(op, ScanStage):
            return op.op_id, fn(
                ctx, *[results[input_id] for input_id in op.inputs]
            )
        answer = access.lookup(op)
        consumer = fusable.get(op.op_id)
        if consumer is not None:
            fused = not (answer.found or answer.banks)
            _note_fusion(op, consumer, fused, answer.why, notes)
            if fused:
                fold = namespace[names[consumer.op_id] + "_scan"]
                # The consumer's other input: a join's build side.
                return consumer.op_id, fold(
                    ctx,
                    *[
                        results[input_id]
                        for input_id in consumer.inputs
                        if input_id != op.op_id
                    ],
                )
        if answer.found:
            return op.op_id, answer.value
        staged = fn(ctx)
        answer.bank(staged)
        return op.op_id, staged

    traced = current_span() is not None
    for op in plan.operators:
        if op.op_id in results:
            continue  # an aggregate its scan already folded
        started = time.perf_counter()
        if traced:
            # One node span per operator (per fused pair), so EXPLAIN
            # ANALYZE annotates a declined run operator by operator like
            # a scheduled one.
            with maybe_span(
                f"{type(op).__name__} o{op.op_id}", "node",
                op_ids=str(op.op_id),
            ) as span:
                answered, value = run(op)
                rows = result_rows(value)
                if rows is not None:
                    span.set(rows=rows)
        else:
            answered, value = run(op)
        results[answered] = value
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


def _note_fusion(
    scan: ScanStage, consumer, fused: bool, why: str, notes: list[str]
) -> None:
    """Say which path a fusable scan→consumer pair took, and why."""
    kind = type(consumer).__name__
    target = f"{kind.lower()} o{consumer.op_id}"
    if fused:
        notes.append(
            f"table {scan.binding!r}: scan fused into {target} ({why})"
        )
    else:
        notes.append(f"table {scan.binding!r}: staged for {target} ({why})")
    span = current_span()
    if span is None or span.category != "node":
        return
    if fused:
        # The node now covers both operators, named as a scheduler's
        # fused node is.
        span.name += f"+{kind} o{consumer.op_id}"
        span.set(op_ids=f"{scan.op_id},{consumer.op_id}")
    span.set(fused=fused, why=why, consumer=kind.lower())
