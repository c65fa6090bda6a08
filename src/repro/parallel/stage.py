"""What stands between a plan and its page walk, and the serial walk.

Three things can answer a plan, or part of it, without scanning:

* a recycled **answer** (:func:`recall`): the statement's rows from the
  version-keyed :class:`~repro.parallel.intermediates.IntermediateCache`,
  current while no table the plan scans has been written since they
  were banked;
* the generated **index probe**: a point or narrow range read fetches
  just the hit pages;
* a cached **staging** (:class:`StageAccess`): a scan's staged rows
  built from these pages and the parameter slots its filters read.

An answer banks from its second sighting.  A staging is sighted and
banked only on a run whose answer had been banked and is now missing —
a *stale* answer — because that is the only run that reads a staging
again: one whose own table is current under a root that is not.  Every
run may still read a staging another statement banked.

A staging whose table has only grown since it was banked is
**extended**, not rebuilt: the scan's own generated staging function
runs over a :class:`~repro.storage.table.TableTail` view of the rows
past the banked heap end, and :func:`extend_staged` merges them in heap
order.  The result is the staging a fresh scan would build, row for
row and key for key, and is banked at the current version in place of
the old one.  Any other write (UPDATE, DELETE, a bulk load, DDL) makes
the next scan stage from scratch.

:func:`recall` runs once per execution, before the decision to
schedule; :class:`StageAccess` once per scan, for both ways a plan
executes: the scheduler's morsel-parallel scan and :func:`serial_walk`,
the plan-order walk over the serial generated functions that runs
whenever threads would have nothing to overlap.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.core.executor import build_context
from repro.obs import current_span, maybe_span
from repro.parallel.merge import kway_merge, run_key
from repro.parallel.stats import PhaseStats
from repro.plan.descriptors import (
    PREP_PARTITION,
    PREP_PARTITION_SORT,
    PREP_SORT,
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


class Answer:
    """A statement's recycled rows, or a miss that may bank its rows.

    ``recycled`` is "hit", "stale" (an answer banked before is missing)
    or "first" (none was banked yet); "" when the cache was not asked.
    """

    __slots__ = ("rows", "recycled", "_cache", "_key", "_scanned")

    def __init__(
        self, recycled="", rows=None, cache=None, key=None, scanned=()
    ):
        self.rows = rows
        self.recycled = recycled
        self._cache = cache
        self._key = key
        self._scanned = scanned

    @property
    def stale(self) -> bool:
        return self.recycled == "stale"

    def note(self) -> str:
        versions = ", ".join(f"{name}={v}" for name, v in self._key[2])
        return f"answer recycled (versions {versions})"

    def bank(self, rows: list) -> None:
        """Keep ``rows`` if the lookup earned them a place and no
        scanned table's version moved while they were computed."""
        if self._cache is None:
            return
        token, params, versions = self._key
        if _versions(self._scanned) == versions:
            self._cache.bank(token, params, versions, rows)


#: The answers that carry no key: the cache was not asked, and a first
#: sighting that will not bank.
_UNASKED = Answer()
_FIRST = Answer("first")


def _versions(scanned) -> tuple:
    return tuple([(name, table.version) for name, table in scanned])


def recall(prepared, params: tuple, cache, min_pages: int) -> Answer:
    """Look ``prepared``'s answer for ``params`` up in ``cache``.

    Plans that scan only tables below ``min_pages`` skip the cache, as
    their scans skip staging lookups: they cost less to run than to
    size and copy.
    """
    if cache is None:
        return _UNASKED
    scanned = prepared.scanned
    for _, table in scanned:
        if table.num_pages >= min_pages:
            break
    else:
        return _UNASKED
    key = (prepared.token, repr(params), _versions(scanned))
    rows, stale, banks = cache.recall(*key)
    if rows is not None:
        return Answer("hit", rows, key=key)
    if not banks:
        return _FIRST
    return Answer(
        "stale" if stale else "first", cache=cache, key=key, scanned=scanned
    )


class Staged:
    """One scan's answer: the staged rows, or a miss that may bank.

    ``why`` names the path: "index fetch", "cache hit" or "extended"
    for an answer; "second sighting" for a miss that banks; for one
    that does not, "first sighting", "answer not stale", "below
    min_pages", "no cache" or "not bankable".
    """

    __slots__ = ("value", "why", "_cache", "_key", "_table")

    def __init__(self, why, value=_MISS, cache=None, key=None, table=None):
        self.value = value
        self.why = why
        self._cache = cache
        self._key = key
        self._table = table

    @property
    def found(self) -> bool:
        return self.value is not _MISS

    @property
    def banks(self) -> bool:
        """Whether :meth:`bank` will keep what the scan stages."""
        return self._key is not None

    def bank(self, staged) -> None:
        """Keep what the scan staged, with the heap end it covers, if
        the lookup earned it a place and the table did not move."""
        if self._key is not None and self._table.version == self._key[1]:
            self._cache.put(*self._key, staged, self._table.heap_end())


class StageAccess:
    """One run's index-probe and intermediate-cache step.

    ``note`` receives the run-level remarks ("index: 3 rids", "staging
    reused …"); the per-operator span attributes EXPLAIN ANALYZE reads
    go on the active node span directly.
    """

    def __init__(
        self, prepared, ctx, params, cache, min_pages, note, admit
    ):
        self.namespace = prepared.compiled.namespace
        self.names = prepared.generated.function_names
        self.ctx = ctx
        self.params = params
        self.cache = cache
        self.min_pages = min_pages
        self.note = note
        #: Whether a miss may sight and bank: the run's answer is stale.
        self.admit = admit

    def lookup(self, op: ScanStage, bankable: bool = True) -> Staged:
        """Answer ``op`` from the index or the cache, else a miss.

        The probe runs first: when the index accepts, the generated
        fetch reads just the hit pages and nothing is banked.  The
        cache is consulted only for a staging worth banking — the
        caller's ``bankable`` (a fused or incrementally handed-off scan
        has no complete staging to keep) and at least ``min_pages``
        read — and, on a run whose answer is stale, a miss earns a
        place from its second sighting.
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
        params = self.params
        signature = op.staging_shape + (
            tuple([params[slot] for slot in op.param_slots]),
        )
        staged = cache.get(name, table.version, signature)
        if staged is not None:
            self.note(
                f"table {op.binding!r}: staging reused a cached "
                f"intermediate (version {table.version})"
            )
            _mark_node(staging_cached=True)
            return Staged("cache hit", staged)
        staged = self._extend(op, name, signature)
        if staged is not None:
            return Staged("extended", staged)
        if not self.admit:
            return Staged("answer not stale")
        if cache.sighted(name, signature):
            return Staged(
                "second sighting",
                cache=cache,
                key=(name, table.version, signature),
                table=table,
            )
        return Staged("first sighting")

    def _extend(self, op: ScanStage, name: str, signature: tuple):
        """``op``'s staging at its table's current version, built from
        the newest banked one by staging only the rows appended since;
        None when there is none, or the table saw more than appends."""
        table = op.table
        newest = self.cache.newest(name, signature)
        if newest is None:
            return None
        version, end, staged = newest
        if not table.rewritten <= version < table.version:
            return None
        ctx = replace(
            self.ctx, tables={**self.ctx.tables, op.binding: table.tail(end)}
        )
        appended = self.namespace[self.names[op.op_id]](ctx, end[0])
        added = staged_rows(appended)
        self.note(
            f"table {op.binding!r}: staging extended from version "
            f"{version} (+{added} rows)"
        )
        _mark_node(staging_extended=f"from version {version} (+{added} rows)")
        return self.cache.put_extended(
            name,
            table.version,
            signature,
            extend_staged(op.prep, staged, appended),
            table.heap_end(),
        )


def extend_staged(prep, staged, tail):
    """A staging over a heap, extended with the staging of the rows
    appended after it: equal to staging the whole heap afresh.

    The appended rows follow every staged row in heap order, so they
    are one more run after ``staged``: concatenated for prep none,
    appended per key or bucket for a partition, stably merged (ties to
    ``staged``) for a sort or a partition sort.  A fine directory's new
    keys go last, in the order the rows met them.  Builds new
    containers where rows were added and shares the rest, so neither
    input is mutated.
    """
    if prep.kind in (PREP_SORT, PREP_PARTITION_SORT):
        key = run_key(prep.keys)

        def join(old: list, new: list) -> list:
            return kway_merge([old, new], key)
    else:

        def join(old: list, new: list) -> list:
            return old + new if new else old

    if prep.kind not in (PREP_PARTITION, PREP_PARTITION_SORT):
        return join(staged, tail)
    if isinstance(staged, dict):
        merged = dict(staged)
        for value, bucket in tail.items():
            old = merged.get(value)
            merged[value] = bucket if old is None else join(old, bucket)
        return merged
    return [join(old, new) for old, new in zip(staged, tail)]


def staged_rows(staged) -> int:
    """How many rows a staged structure holds, whatever its shape."""
    if isinstance(staged, dict):
        return sum(map(len, staged.values()))
    if staged and isinstance(staged[0], list):
        return sum(map(len, staged))
    return len(staged)


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
    prepared, params: tuple, cache, min_pages: int, admit: bool
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
    phase that ran (a fused step counts as staging).  ``admit`` is
    :class:`StageAccess`'s: whether the run's answer is stale.
    """
    plan = prepared.plan
    namespace = prepared.compiled.namespace
    names = prepared.generated.function_names
    ctx = build_context(
        plan, opt_level=prepared.compiled.opt_level, params=params
    )
    notes: list[str] = []
    access = StageAccess(
        prepared, ctx, params, cache, min_pages, notes.append, admit
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
