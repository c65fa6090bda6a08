"""What stands between a plan and its page walk.

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

:func:`recall` runs once per execution.  On a miss the generated
composing function ``run_query(ctx, acc)`` runs the plan, and hands
every scan to its access object ``acc``, a :class:`StageAccess`, which
also keeps the run's phase clock.  Under a current trace span the run
takes :class:`SpannedAccess` and :func:`spanned_query`, so EXPLAIN
ANALYZE sees one node span per operator.
"""

from __future__ import annotations

import functools
import types
from dataclasses import replace
from operator import itemgetter
from time import perf_counter as _clock

from repro.core.generator import PHASE_OF
from repro.obs import current_span, maybe_span
from repro.parallel.stats import PhaseStats
from repro.plan.descriptors import (
    PREP_PARTITION,
    PREP_PARTITION_SORT,
    PREP_SORT,
    ScanStage,
)

#: Canonical phase order for reporting.
PHASE_ORDER = ("stage", "join", "aggregate", "final")

#: Tables below this many pages skip the intermediate cache: their
#: stagings are neither looked up nor banked, and a plan that scans only
#: such tables banks no answer — they cost less to run than to size and
#: copy.  Read when each lookup runs, never bound as a default.
MIN_PAGES = 16

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


def recall(prepared, params: tuple, cache) -> Answer:
    """Look ``prepared``'s answer for ``params`` up in ``cache``.

    Plans that scan only tables below :data:`MIN_PAGES` skip the cache,
    as their scans skip staging lookups.
    """
    if cache is None:
        return _UNASKED
    scanned = prepared.scanned
    for _, table in scanned:
        if table.num_pages >= MIN_PAGES:
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
    min_pages" or "no cache".
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

    def build(self, stage, ctx):
        """The answer, else what ``stage`` stages, banked if it may."""
        if self.value is not _MISS:
            return self.value
        staged = stage(ctx)
        self.bank(staged)
        return staged


class StageAccess:
    """One run's access object: what ``run_query(ctx, acc)`` hands
    every scan, and the run's phase clock.

    :meth:`scan` answers a scan from the index or the cache, else
    stages it; :meth:`fold` does the same for a scan the generator
    fused into its consumer, running the consumer's page loop instead
    when nothing would keep the staging; :meth:`lap` books a direct
    call's time to its phase.  ``notes`` collects the run-level remarks
    ("index: 3 rids", "staging reused …").  Traced modules have no
    probe+fetch pair beside their scans, so their scans never probe;
    ``cache`` None skips the intermediate cache.
    """

    def __init__(self, prepared, ctx, cache=None, admit=False):
        self.plan = prepared.plan
        self.namespace = prepared.compiled.namespace
        self.names = prepared.generated.function_names
        self.indexes = not prepared.compiled.traced
        self.ctx = ctx
        self.params = ctx.params
        self.cache = cache
        #: Whether a miss may sight and bank: the run's answer is stale.
        self.admit = admit
        self.notes: list[str] = []
        self.seconds: dict[str, float] = {}
        self._last = _clock()

    def lap(self, phase: str) -> None:
        """Book the time since the previous step ended to ``phase``."""
        now = _clock()
        self.seconds[phase] = self.seconds.get(phase, 0.0) + now - self._last
        self._last = now

    def phases(self) -> list[PhaseStats]:
        """One :class:`PhaseStats` per phase that ran, in phase order."""
        return [
            PhaseStats(name, self.seconds[name])
            for name in PHASE_ORDER
            if name in self.seconds
        ]

    def scan(self, op_id: int, stage):
        """Scan ``op_id``'s staged rows: from the index or the cache,
        else from its staging function ``stage`` (banked if it may)."""
        staged = self._scan(self.plan.op(op_id), stage)
        self.lap("stage")
        return staged

    def _scan(self, op: ScanStage, stage):
        return self.lookup(op).build(stage, self.ctx)

    def fold(self, op_id: int, stage, consumer, consumer_scan, *others):
        """The result of scan ``op_id``'s consumer, which the generator
        fused with it.

        When the lookup misses without banking, ``consumer_scan`` runs
        the scan's page loop with the consumer inlined: the staging
        would be dropped right after the consumer walks it, so it is
        never built, and the step counts as staging.  Otherwise the
        scan's staged rows feed ``consumer``, timed in its own phase.
        ``others`` are the consumer's other inputs (a join's build
        side)."""
        op, target = self._pair(op_id)
        fused, result = self._fold(op, target, stage, consumer_scan, others)
        self.lap("stage")
        if fused:
            return result
        result = consumer(self.ctx, *others, result)
        self.lap(PHASE_OF[type(target)])
        return result

    def _fold(self, op, target, stage, consumer_scan, others):
        """``(fused, result)``: the consumer's result when fused, else
        the scan's staged rows."""
        answer = self.lookup(op)
        fused = not (answer.found or answer.banks)
        self._note_fusion(op, target, fused, answer.why)
        if fused:
            return True, consumer_scan(self.ctx, *others)
        return False, answer.build(stage, self.ctx)

    def _pair(self, op_id: int):
        """Scan ``op_id`` and the operator after it, its consumer."""
        operators = self.plan.operators
        index = next(
            i for i, op in enumerate(operators) if op.op_id == op_id
        )
        return operators[index], operators[index + 1]

    def _note_fusion(self, op, target, fused: bool, why: str) -> None:
        """Say which path a fused scan→consumer pair took, and why."""
        kind = type(target).__name__.lower()
        path = "scan fused into" if fused else "staged for"
        self.notes.append(
            f"table {op.binding!r}: {path} {kind} o{target.op_id} ({why})"
        )
        self._mark(fused=fused, why=why, consumer=kind)

    def _mark(self, **attrs) -> None:
        """Annotate the scan's node span: only :class:`SpannedAccess`
        opens one."""

    def lookup(self, op: ScanStage) -> Staged:
        """Answer ``op`` from the index or the cache, else a miss.

        The probe runs first: when the index accepts, the generated
        fetch reads just the hit pages and nothing is banked.  The
        cache is consulted only for a staging worth banking — at least
        :data:`MIN_PAGES` read — and, on a run whose answer is stale, a
        miss earns a place from its second sighting.
        """
        table = op.table
        if op.index is not None and self.indexes:
            name = self.names[op.op_id]
            hit = self.namespace[name + "_probe"](self.ctx)
            if hit.rids is None:
                outcome = (
                    f"index declined: {hit.matched} > {hit.cutoff}, scanned"
                )
            else:
                outcome = f"index: {hit.matched} rids"
            self.notes.append(f"table {op.binding!r}: {outcome}")
            self._mark(index=outcome)
            if hit.rids is not None:
                return Staged(
                    "index fetch",
                    self.namespace[name + "_fetch"](self.ctx, hit.rids),
                )
        cache = self.cache
        if cache is None:
            return Staged("no cache")
        if table.num_pages < MIN_PAGES:
            return Staged("below min_pages")
        name = table.name.lower()
        params = self.params
        signature = op.staging_shape + (
            tuple([params[slot] for slot in op.param_slots]),
        )
        staged = cache.get(name, table.version, signature)
        if staged is not None:
            self.notes.append(
                f"table {op.binding!r}: staging reused a cached "
                f"intermediate (version {table.version})"
            )
            self._mark(staging_cached=True)
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
        self.notes.append(
            f"table {op.binding!r}: staging extended from version "
            f"{version} (+{added} rows)"
        )
        self._mark(staging_extended=f"from version {version} (+{added} rows)")
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
    appended per key or bucket for a partition, stably sorted together
    for a sort or a partition sort — ``sorted`` is stable, so key ties
    go to ``staged`` as in one sort of the whole heap, and Timsort
    merges the two presorted runs without sorting them again.  A fine
    directory's new keys go last, in the order the rows met them.
    Builds new containers where rows were added and shares the rest,
    so neither input is mutated.
    """
    if prep.kind in (PREP_SORT, PREP_PARTITION_SORT):
        key = itemgetter(*prep.keys)

        def join(old: list, new: list) -> list:
            return sorted(old + new, key=key) if new else old
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


class SpannedAccess(StageAccess):
    """A :class:`StageAccess` that opens each scan's node span (a fused
    pair's covers both operators) and annotates it with the path the
    scan took.  Runs with :func:`spanned_query`."""

    def _scan(self, op: ScanStage, stage):
        with _node_span(op) as span:
            staged = super()._scan(op, stage)
            _count_rows(span, staged)
        return staged

    def _fold(self, op, target, *args):
        with _node_span(op) as span:
            fused, result = super()._fold(op, target, *args)
            if fused and span is not None:
                # The node now covers both operators.
                span.name += f"+{type(target).__name__} o{target.op_id}"
                span.set(op_ids=f"{op.op_id},{target.op_id}")
            _count_rows(span, result)
        return fused, result

    def _mark(self, **attrs) -> None:
        span = current_span()
        if span is not None and span.category == "node":
            span.set(**attrs)


def spanned_query(prepared):
    """``run_query`` over a copy of its module namespace in which every
    operator function but the scans opens its own node span.

    A fused consumer's page loop (``<consumer>_scan``) keeps the plain
    function: it runs inside its scan's span."""
    namespace = dict(prepared.compiled.namespace)
    names = prepared.generated.function_names
    for op in prepared.plan.operators:
        if not isinstance(op, ScanStage):
            name = names[op.op_id]
            namespace[name] = _spanned(op, namespace[name])
    return types.FunctionType(namespace["run_query"].__code__, namespace)


def _spanned(op, function):
    @functools.wraps(function)
    def run(ctx, *inputs):
        with _node_span(op) as span:
            result = function(ctx, *inputs)
            _count_rows(span, result)
        return result

    return run


def _node_span(op):
    return maybe_span(
        f"{type(op).__name__} o{op.op_id}", "node", op_ids=str(op.op_id)
    )


def _count_rows(span, result) -> None:
    """Set the span's row count when the result is a plain row list.

    Staged results may instead be partition dicts or coarse partition
    lists; those report no row count rather than a misleading one."""
    if span is not None and isinstance(result, list) and (
        not result or isinstance(result[0], tuple)
    ):
        span.set(rows=len(result))
