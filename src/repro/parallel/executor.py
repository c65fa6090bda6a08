"""Morsel-driven parallel execution of generated query code.

The serial executor calls a generated module's composed ``run_query``
entry point.  This executor's first answer is "don't schedule": when
no scanned page can wait (:meth:`ParallelExecutor.waiting_table`) or
one worker is configured, :func:`~repro.parallel.stage.serial_walk`
runs the serial generated functions on the calling thread.  Otherwise
it walks the operator list itself — a *phase scheduler* — and drives
each operator's generated entry points with a worker pool wherever an
order-preserving parallel strategy exists:

* **stage** — unless the index probe or the intermediate cache
  answers it first (:class:`~repro.parallel.stage.StageAccess`),
  every table scan (staged or not) is split into page-range
  :class:`~repro.parallel.morsel.Morsel`\\ s; each worker runs the same
  generated scan–filter–project(–prep) loop over its slices, and the
  per-morsel results are reassembled to exactly the serial staging
  output: plain chunks concatenate in page order, sorted runs go
  through a stability-preserving k-way merge, partitions merge bucket
  by bucket (see :mod:`repro.parallel.merge`);
* **join** — hash/hybrid joins run their generated ``*_pair`` entry
  point per partition pair, merge and nested-loops joins per outer row
  chunk (with the inner side pre-sliced by binary search for merges);
  per-task output buffers concatenate in task order, which is the
  serial emission order;
* **aggregate** — map and global aggregation fold row chunks into
  thread-local partial states through the generated ``*_partial``
  function, merged group by group here; sort/hybrid aggregation
  consumes its (parallel-)staged input through the serial generated
  function, which is exact by construction;
* **final** — ORDER BY runs as per-chunk sorted runs plus a
  mixed-direction k-way merge; projections fuse into the scan they
  consume; LIMIT is a serial slice.

* **restage** — re-staging a large intermediate (sorting or
  partitioning it for its next consumer) runs the generated
  ``*_chunk`` entry point per contiguous row chunk, with the per-chunk
  sorted runs / partition sets reassembled by the same merge
  finishers parallel scan staging uses;
* **join teams** — a multiway merge team runs the generated team
  function per chunk of its first input (the other inputs pre-sliced
  by binary search, exactly like a chunked binary merge join); a
  hybrid team runs it per corresponding coarse partition.

Each phase's units of work are zero-argument thunks over the generated
entry points, run by the :class:`~repro.parallel.backend.ThreadBackend`:
its workers claim tasks dynamically from a shared dispatcher and run
generated code against the live context.  Every merge is
order-preserving, which keeps parallel output row-for-row identical to
a serial run for every plan shape.  Operators below the configured size
thresholds simply run their serial generated function in plan order,
so a scheduled run degrades gracefully instead of falling back
wholesale.

A scheduled run has one schedule: dependency-driven dispatch with
no phase barriers.  The run builds a *dependency graph* — every
operator (with a scan and its fusable consumer collapsed into one
node) is keyed by the op ids it produces — and launches each node the
moment its last input node finishes, so independent scans stage
concurrently, a CPU-bound join overlaps a latency-bound scan of a
later input, and a restage starts the instant the join feeding it
completes.  Task order inside every node is fixed, each node's
finisher reassembles results order-preservingly, and node results
only become visible to dependents after the completion handshake, so
scheduled rows are byte-identical to the serial walk's — only the
wall-clock interleaving varies.  :class:`ExecutionStats` reports the
per-phase timings, worker counts, cross-phase overlap seconds and any
serial decisions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.emitter import OPT_O2
from repro.core.executor import build_context, run_compiled
from repro.core.templates.aggregate import collect_aggregates
from repro.errors import MapDirectoryOverflow
from repro.memsim.probe import NULL_PROBE, NullProbe
from repro.obs import (
    Observability,
    current_span,
    default_observability,
    maybe_span,
)
from repro.parallel.backend import PoolAbandoned, ThreadBackend
from repro.parallel.merge import (
    chunk_bounds,
    lower_bound,
    merge_fine_partition_runs,
    merge_ordered_runs,
    merge_partition_runs,
    merge_partition_sorted_runs,
    merge_sorted_runs,
)
from repro.parallel.morsel import morsels_for
from repro.parallel.stage import (
    PHASE_OF,
    PHASE_ORDER,
    StageAccess,
    recall,
    result_rows,
    serial_walk,
)
from repro.parallel.stats import ExecutionStats, ParallelConfig, PhaseStats
from repro.plan.descriptors import (
    AGG_MAP,
    Aggregate,
    JOIN_HASH,
    JOIN_MERGE,
    JOIN_NESTED,
    Join,
    MultiwayJoin,
    PREP_NONE,
    PREP_PARTITION,
    PREP_PARTITION_SORT,
    PREP_SORT,
    Project,
    Restage,
    ScanStage,
    Sort,
)
from repro.sql.bound import (
    BoundAggregate,
    BoundArithmetic,
    BoundColumn,
    BoundParameter,
)
from repro.storage.types import DOUBLE


@dataclass
class _Report:
    """What a scheduled run did: per-phase stats plus serial notes.

    Thread-safe: independent operator nodes run on their own driver
    threads and report concurrently, so every mutation goes through
    one lock.
    """

    skips: list[str] = field(default_factory=list)
    phases: dict[str, PhaseStats] = field(default_factory=dict)
    morsels: int = 0
    pages: int = 0
    #: ``(phase, started, ended)`` wall-clock spans of every phase
    #: contribution, for cross-phase overlap accounting.
    spans: list[tuple[str, float, float]] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def skip(self, reason: str, mark_span: bool = True) -> None:
        # When tracing, mark the scheduling node so EXPLAIN ANALYZE can
        # flag the serial fallback per operator, not just in run notes.
        # Run-level skips happen under the engine's execute span, which
        # the category guard excludes.  A cache
        # reuse passes ``mark_span=False``: it is a win, not a
        # fallback, and carries its own span attribute.
        if mark_span:
            span = current_span()
            if span is not None and span.category == "node":
                span.set(serial=True, serial_reason=reason[:160])
        with self._lock:
            if reason not in self.skips:
                self.skips.append(reason)

    def note(
        self,
        phase: str,
        started: float,
        ended: float,
        workers: int,
        tasks: int,
    ) -> None:
        seconds = ended - started
        with self._lock:
            self.spans.append((phase, started, ended))
            entry = self.phases.get(phase)
            if entry is None:
                self.phases[phase] = PhaseStats(
                    name=phase,
                    seconds=seconds,
                    workers=workers,
                    tasks=tasks,
                )
            else:
                entry.seconds += seconds
                entry.workers = max(entry.workers, workers)
                entry.tasks += tasks

    def add_scan(self, morsels: int, pages: int) -> None:
        with self._lock:
            self.morsels += morsels
            self.pages += pages

    @property
    def went_parallel(self) -> bool:
        return any(phase.workers > 1 for phase in self.phases.values())

    def max_workers(self) -> int:
        return max(
            (phase.workers for phase in self.phases.values()), default=1
        )

    def ordered_phases(self) -> list[PhaseStats]:
        self._apply_overlaps()
        return [
            self.phases[name] for name in PHASE_ORDER if name in self.phases
        ]

    def _apply_overlaps(self) -> None:
        """Fill each phase's ``overlap_seconds`` from the span log.

        A phase's overlap is the portion of its spans covered by the
        union of every *other* span — another phase's, or another
        operator node of the same phase (two table scans staging
        concurrently count: no barrier holds the second back).  Nodes
        that run one after another have disjoint spans, so a chain plan
        reports no overlap.
        """
        totals: dict[str, float] = {}
        for index, (name, lo, hi) in enumerate(self.spans):
            others = _merge_spans(
                [
                    (other_lo, other_hi)
                    for other_index, (_, other_lo, other_hi) in enumerate(
                        self.spans
                    )
                    if other_index != index
                ]
            )
            totals[name] = totals.get(name, 0.0) + _span_intersection(
                lo, hi, others
            )
        for name, stats in self.phases.items():
            stats.overlap_seconds = totals.get(name, 0.0)


def _merge_spans(spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union a span list into sorted, disjoint intervals."""
    merged: list[list[float]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _span_intersection(
    lo: float, hi: float, others: list[tuple[float, float]]
) -> float:
    """Length of ``[lo, hi)`` covered by the disjoint ``others``."""
    total = 0.0
    for other_lo, other_hi in others:
        if other_lo >= hi:
            break
        total += max(0.0, min(hi, other_hi) - max(lo, other_lo))
    return total


class ParallelExecutor:
    """Runs prepared queries over a shared worker pool.

    One instance per engine; thread-safe, so concurrent sessions share
    the pool and their work units interleave.  ``run()`` never changes
    result semantics: every parallel strategy reassembles its partial
    results order-preservingly, and anything else runs the serial
    generated functions in plan order.
    """

    def __init__(
        self,
        config: ParallelConfig | None = None,
        obs: Observability | None = None,
    ):
        self.config = config if config is not None else ParallelConfig()
        self.obs = obs if obs is not None else default_observability()
        self._lock = threading.Lock()
        self._thread = self._new_thread_backend(self.config)
        #: Optional :class:`~repro.parallel.intermediates.IntermediateCache`
        #: wired by the embedding database; when set, answers and staged
        #: scan outputs are reused across executions keyed on the
        #: scanned tables' version epochs (see
        #: :func:`~repro.parallel.stage.recall` and
        #: :class:`~repro.parallel.stage.StageAccess`).
        self.intermediates = None
        self.parallel_runs = 0
        self.serial_runs = 0

    def _new_thread_backend(self, config: ParallelConfig) -> ThreadBackend:
        return ThreadBackend(
            config.workers,
            task_timeout=config.task_timeout,
            registry=self.obs.registry,
        )

    # -- lifecycle ---------------------------------------------------------------
    def thread_backend(self) -> ThreadBackend:
        with self._lock:
            return self._thread

    def reconfigure(self, config: ParallelConfig) -> None:
        """Swap the configuration and retire the current worker pool.

        Safe against in-flight runs: they captured the old config and
        backend on entry and already hold futures on the old pool,
        which drains them before shutting down; later runs lazily build
        a fresh pool sized to the new configuration.
        """
        with self._lock:
            thread, self._thread = self._thread, self._new_thread_backend(
                config
            )
            self.config = config
        thread.close()

    def close(self) -> None:
        with self._lock:
            thread, self._thread = self._thread, self._new_thread_backend(
                self.config
            )
        thread.close()

    # -- execution ----------------------------------------------------------------
    def run(
        self,
        prepared,
        params: tuple = (),
        probe: NullProbe = NULL_PROBE,
    ) -> tuple[list[tuple], ExecutionStats]:
        """Execute a :class:`~repro.core.engine.PreparedQuery`.

        Returns ``(rows, stats)``; rows are identical to what the serial
        entry point produces for the same inputs — a recycled answer
        too, since no table it read has been written since it was
        computed.
        """
        started = time.perf_counter()
        # One consistent view of the knobs for the whole run, even if a
        # concurrent reconfigure() swaps self.config mid-execution.
        config = self.config
        reason = self._ineligible(prepared, probe)
        if reason:
            rows = run_compiled(
                prepared.compiled, prepared.plan, probe=probe, params=params
            )
            with self._lock:
                self.serial_runs += 1
            return rows, ExecutionStats(
                parallel=False,
                rows=len(rows),
                elapsed_seconds=time.perf_counter() - started,
                reason=reason,
            )

        # A current answer needs no run at all.
        params = tuple(params)
        answer = recall(
            prepared, params, self.intermediates, config.min_pages
        )
        if answer.rows is not None:
            return answer.rows, ExecutionStats(
                rows=len(answer.rows),
                elapsed_seconds=time.perf_counter() - started,
                reason=answer.note(),
                recycled="hit",
            )

        # The first decision, from the data: schedule only when some
        # scanned page can wait.
        waiting = ""
        if config.workers <= 1:
            reason = "single worker"
        else:
            waiting = self.waiting_table(prepared.plan)
            if not waiting:
                reason = (
                    "all scanned pages resident: nothing for threads "
                    "to overlap"
                )
        if reason:
            rows, phases, notes = serial_walk(
                prepared, params, self.intermediates, config.min_pages,
                answer.stale,
            )
            answer.bank(rows)
            with self._lock:
                self.serial_runs += 1
            return rows, ExecutionStats(
                parallel=False,
                rows=len(rows),
                elapsed_seconds=time.perf_counter() - started,
                reason=reason,
                phases=phases,
                notes=notes,
                recycled=answer.recycled,
            )

        report = _Report()
        report.skip(f"scheduled: {waiting}", mark_span=False)
        rows = _ScheduledRun(
            self, prepared, params, config, report, answer.stale
        ).execute()
        answer.bank(rows)
        parallel = report.went_parallel
        with self._lock:
            if parallel:
                self.parallel_runs += 1
            else:
                self.serial_runs += 1
        return rows, ExecutionStats(
            parallel=parallel,
            scheduled=True,
            workers=report.max_workers(),
            morsels=report.morsels,
            pages=report.pages,
            rows=len(rows),
            elapsed_seconds=time.perf_counter() - started,
            reason=(
                ""
                if parallel
                else "; ".join(report.skips) or "no parallelizable phase"
            ),
            phases=report.ordered_phases(),
            notes=list(report.skips),
            recycled=answer.recycled,
        )

    @staticmethod
    def waiting_table(plan) -> str:
        """Which scanned table has pages that can wait, or "" for none.

        The scheduler's first question.  Threads under the GIL overlap
        waits, not computation: when every page a plan scans is already
        in memory there is nothing for them to overlap, and the serial
        generated program is the fast path.
        """
        for op in plan.operators:
            if isinstance(op, ScanStage):
                waiting = op.table.waiting_pages
                if waiting:
                    return (
                        f"table {op.binding!r}: {waiting} of "
                        f"{op.table.num_pages} pages not resident"
                    )
        return ""

    @staticmethod
    def _ineligible(prepared, probe: NullProbe) -> str:
        """A reason to run the bare composed entry point, or ""."""
        if probe.enabled:
            return "traced execution (probe is not thread-safe)"
        if prepared.compiled.traced:
            # A traced module dereferences ctx.probe internals; without
            # a probe the serial path raises the proper ExecutionError.
            return "traced module (runs on the serial entry point)"
        return ""


@dataclass(frozen=True)
class _Node:
    """One unit of the dependency graph: an operator (or fused pair).

    ``op_ids`` are the operator ids this node materializes results
    for; ``deps`` the operator ids that must be materialized first.
    ``run`` executes the node to completion — dispatching its task
    batch and finishing the merge — and is the only code that writes
    this node's entries of the shared results map.
    """

    op_ids: tuple[int, ...]
    deps: tuple[int, ...]
    run: object  # zero-arg callable


class _ScheduledRun:
    """One execution of a plan through the phase scheduler."""

    def __init__(
        self,
        owner: ParallelExecutor,
        prepared,
        params: tuple,
        config: ParallelConfig,
        report: _Report,
        admit: bool,
    ):
        self.owner = owner
        self.prepared = prepared
        self.plan = prepared.plan
        # The per-morsel entry points (``*_partial``/``_pair``/``_chunk``)
        # are compiled on the query's first scheduled run.
        prepared.compiled.link_scheduled()
        self.namespace = prepared.compiled.namespace
        self.names = prepared.generated.function_names
        self.params = params
        self.config = config
        self.report = report
        #: Span the scheduler's node spans parent under.  Captured on
        #: the constructing thread (where the engine's execute span is
        #: active): node runners later execute on driver threads, whose
        #: contexts start empty.
        self.parent_span = current_span()
        self.ctx = build_context(
            self.plan, opt_level=prepared.compiled.opt_level, params=params
        )
        self.access = StageAccess(
            prepared, self.ctx, params, owner.intermediates,
            config.min_pages,
            lambda remark: report.skip(remark, mark_span=False),
            admit,
        )
        #: op_id → materialized result (None for a scan fused away).
        self.results: dict[int, object] = {}

    def execute(self) -> list[tuple]:
        nodes = self._build_nodes()
        if len(nodes) == 1:
            # Nothing to overlap: run the only node on this thread.
            nodes[0].run()
        else:
            self._run_pipelined(nodes)
        return self.results[self.plan.root.op_id]

    # -- the task graph ----------------------------------------------------------------
    def _build_nodes(self) -> list["_Node"]:
        """The dependency graph: one node per operator, scans fused.

        A scan and its fusable consumer (projection / partial-able
        aggregation) collapse into one node producing both op ids, so
        the fused post-function still rides inside the scan tasks.
        Node order is plan order; the driver only honors ``deps``.
        """
        operators = list(self.plan.operators)
        nodes: list[_Node] = []
        index = 0
        while index < len(operators):
            op = operators[index]
            if isinstance(op, ScanStage):
                following = (
                    operators[index + 1]
                    if index + 1 < len(operators)
                    else None
                )
                fused = self._fusable_consumer(op, following)
                if fused is not None:
                    op_ids = (op.op_id, fused.op_id)
                    nodes.append(
                        _Node(
                            op_ids=op_ids,
                            deps=(),
                            run=self._with_node_span(
                                op_ids, self._fused_scan_runner(op, fused)
                            ),
                        )
                    )
                    index += 2
                    continue
                nodes.append(
                    _Node(
                        op_ids=(op.op_id,),
                        deps=(),
                        run=self._with_node_span(
                            (op.op_id,), self._scan_runner(op)
                        ),
                    )
                )
            else:
                nodes.append(
                    _Node(
                        op_ids=(op.op_id,),
                        deps=tuple(op.inputs),
                        run=self._with_node_span(
                            (op.op_id,), self._op_runner(op)
                        ),
                    )
                )
            index += 1
        return nodes

    def _node_label(self, op_ids: tuple[int, ...]) -> str:
        return "+".join(
            f"{type(self.plan.op(op_id)).__name__} o{op_id}"
            for op_id in op_ids
        )

    def _with_node_span(self, op_ids: tuple[int, ...], run):
        """Wrap a node runner in a scheduler-node span (when tracing).

        The span parents under the engine's execute span captured at
        construction and is *activated* for the duration of the run, so
        batch dispatch, merge finishers and buffer-pool attribution all
        land under the right node — on a driver thread, or on the
        calling thread for a single-node plan.
        """
        if self.parent_span is None:
            return run
        label = self._node_label(op_ids)

        def traced() -> None:
            span = self.parent_span.child(
                label, "node", op_ids=",".join(str(i) for i in op_ids)
            )
            try:
                with span.activate():
                    run()
            finally:
                span.finish()
                rows = result_rows(self.results.get(op_ids[-1]))
                if rows is not None:
                    span.set(rows=rows)

        return traced

    def _scan_runner(self, op: ScanStage):
        return lambda: self._scan(op, None)

    def _fused_scan_runner(self, op: ScanStage, fused):
        def run() -> None:
            if not self._scan(op, fused):
                # The scan stayed serial (below thresholds), so the
                # consumer did not ride inside the scan tasks; give it
                # its own chance at parallel execution.
                self._dispatch(fused)

        return run

    def _op_runner(self, op):
        return lambda: self._dispatch(op)

    def _dispatch(self, op) -> None:
        if isinstance(op, Join):
            self._join(op)
        elif isinstance(op, MultiwayJoin):
            self._multiway(op)
        elif isinstance(op, Restage):
            self._restage(op)
        elif isinstance(op, Aggregate):
            self._aggregate(op)
        elif isinstance(op, Sort):
            self._sort(op)
        else:
            self._serial(op)

    def _run_pipelined(self, nodes: list["_Node"]) -> None:
        """Dependency-driven execution: launch nodes as inputs finish.

        Each ready node runs on its own driver thread; its batch fans
        out on the shared worker pool, so independent nodes' tasks
        interleave.  A node's results become visible to dependents only
        through the completion handshake under ``cond`` (the lock
        gives the happens-before edge), and every started driver is
        joined before control returns — on error too, so no task ever
        runs against state the caller is unwinding.
        """
        cond = threading.Condition()
        done: set[int] = set()
        pending = list(nodes)
        errors: list[BaseException] = []
        finished = [0]
        threads: list[threading.Thread] = []

        def drive(node: "_Node") -> None:
            try:
                node.run()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                with cond:
                    errors.append(exc)
                    finished[0] += 1
                    cond.notify_all()
            else:
                with cond:
                    done.update(node.op_ids)
                    finished[0] += 1
                    cond.notify_all()

        with cond:
            while not errors and finished[0] < len(nodes):
                ready = [
                    node for node in pending if done.issuperset(node.deps)
                ]
                for node in ready:
                    pending.remove(node)
                    thread = threading.Thread(
                        target=drive,
                        args=(node,),
                        name="repro-pipeline",
                        daemon=True,
                    )
                    threads.append(thread)
                    thread.start()
                if errors or finished[0] >= len(nodes):
                    break
                cond.wait()
        for thread in threads:
            thread.join()
        if errors:
            # Prefer the root cause: a pool abandonment is collateral
            # damage from a timeout in a *different* node, and which
            # driver reports first is a race.
            raise next(
                (
                    error
                    for error in errors
                    if not isinstance(error, PoolAbandoned)
                ),
                errors[0],
            )

    # -- shared helpers ---------------------------------------------------------------
    def _call(self, name: str, *args):
        """One task: the generated function ``name`` over ``args``."""
        fn = self.namespace[name]
        ctx = self.ctx
        return lambda: fn(ctx, *args)

    def _scan_task(self, scan, post, page_lo: int, page_hi: int):
        """One morsel task: the generated scan over ``[page_lo, page_hi)``,
        its output fed to the fused consumer ``post`` when there is one."""
        ctx = self.ctx

        def run_scan():
            rows = scan(ctx, page_lo, page_hi)
            return post(ctx, rows) if post is not None else rows

        return run_scan

    def _run_batch(
        self, thunks: list, label: str | None = None, affinity=None
    ) -> tuple[list, int]:
        """Run one phase's tasks on the thread backend, with task spans.

        Returns ``(results, workers)`` with results in task order.
        ``label`` names the scheduling node in watchdog diagnostics;
        ``affinity`` (one partition id per task) makes dispatch sticky
        per worker with stealing fallback.
        """
        node_span = current_span()
        if node_span is not None:
            thunks = self._wrap_traced(thunks, node_span)
        results, workers = self.owner.thread_backend().run_thunks(
            thunks, self.config.workers, label=label, affinity=affinity
        )
        if node_span is not None:
            node_span.set(tasks=len(thunks), workers=workers)
        return results, workers

    def _wrap_traced(self, inners: list, node_span) -> list:
        """Wrap raw thunks in task spans under the node span.

        The wrapper runs on a claim-worker thread (empty context), so
        it activates its span explicitly; the span start vs batch
        submission time is the task's queue wait.
        """
        submitted = time.perf_counter()
        thunks = []
        for index, inner in enumerate(inners):

            def run(inner=inner, index=index):
                started = time.perf_counter()
                span = node_span.child(
                    f"task {index}",
                    "task",
                    start=started,
                    index=index,
                    queue_seconds=started - submitted,
                )
                with span.activate():
                    try:
                        return inner()
                    finally:
                        span.finish()

            thunks.append(run)
        return thunks

    def _serial(self, op) -> None:
        """Run one operator's serial generated function in plan order."""
        started = time.perf_counter()
        fn = self.namespace[self.names[op.op_id]]
        args = [self.results[input_id] for input_id in op.inputs]
        self.results[op.op_id] = fn(self.ctx, *args)
        self.report.note(
            PHASE_OF[type(op)], started, time.perf_counter(), 1, 1
        )

    def _chunk_size(self, num_rows: int) -> int:
        """Rows per chunk: ~4 chunks per worker, floored so tiny chunks
        never dominate dispatch overhead."""
        per_worker = -(-num_rows // (self.config.workers * 4))
        return max(per_worker, self.config.min_rows // 8, 1)

    def _float_gated(self, op: Aggregate) -> bool:
        """True when merging this aggregate's partials would reassociate
        DOUBLE addition, so its rows could differ from a serial run's
        in the last ulp."""
        for node in collect_aggregates(op):
            if (
                node.func in ("sum", "avg")
                and node.argument is not None
                and node.argument.dtype == DOUBLE
            ):
                return True
        return False

    # -- stage phase -------------------------------------------------------------------
    def _scan(self, op: ScanStage, fused) -> bool:
        """Morsel-parallel scan + staging.

        ``fused`` is the already-resolved fusable consumer (or None);
        returns whether the consumer's result was produced here — False
        means the scan stayed serial and the caller must still run the
        consumer itself.
        """
        started = time.perf_counter()
        # A fused scan never materializes a complete staging, so it has
        # nothing to bank or reuse.
        answer = self.access.lookup(op, bankable=fused is None)
        if answer.found:
            self.results[op.op_id] = answer.value
            self.report.note("stage", started, time.perf_counter(), 1, 1)
            return False
        produced = self._scan_pages(op, fused)
        answer.bank(self.results[op.op_id])
        return produced

    def _scan_pages(self, op: ScanStage, fused) -> bool:
        """The page walk behind :meth:`_scan` (same return contract)."""
        table = op.table
        config = self.config
        if table.num_pages < config.min_pages:
            self.report.skip(
                f"table {op.binding!r}: {table.num_pages} pages "
                f"(< min_pages {config.min_pages})"
            )
            self._serial(op)
            return False
        if op.prep.kind == PREP_PARTITION_SORT and op.prep.fine:
            # The template emits a value-directory dict for this combo;
            # merge_partition_sorted_runs expects coarse bucket lists.
            # The optimizer never builds it today — stay serial rather
            # than corrupt results if a future planner change does.
            self.report.skip(
                f"table {op.binding!r}: fine partition-sort staging "
                f"has no parallel merge"
            )
            self._serial(op)
            return False
        morsels = morsels_for(table.num_pages, config.morsel_pages)
        if len(morsels) < 2:
            self.report.skip(f"table {op.binding!r}: single morsel")
            self._serial(op)
            return False

        scan = self.namespace[self.names[op.op_id]]
        post = None
        if isinstance(fused, Aggregate):
            post = self.namespace[self.names[fused.op_id] + "_partial"]
        elif isinstance(fused, Project):
            post = self.namespace[self.names[fused.op_id]]

        started = time.perf_counter()
        tasks = [
            self._scan_task(scan, post, morsel.page_lo, morsel.page_hi)
            for morsel in morsels
        ]
        # Page-range affinity: partition the table's page space evenly
        # across workers and tag each morsel with its stripe, so the
        # same worker walks the same contiguous pages on every run
        # (sequential reads, warm buffer-pool reuse) with stealing as
        # the skew fallback.
        affinity = [
            min(
                morsel.page_lo * config.workers // max(table.num_pages, 1),
                config.workers - 1,
            )
            for morsel in morsels
        ]
        ordered, workers = self._run_batch(
            tasks, label=f"stage:o{op.op_id}", affinity=affinity
        )
        self.report.note(
            "stage", started, time.perf_counter(), workers, len(morsels)
        )
        self.report.add_scan(len(morsels), table.num_pages)

        if isinstance(fused, Aggregate):
            started = time.perf_counter()
            input_layout = self.plan.op(fused.input_op).output_layout
            with maybe_span("merge", "merge", kind="aggregate-partials"):
                rows = merge_aggregate_partials(
                    fused,
                    input_layout,
                    ordered,
                    self.params,
                    directory_order=(
                        self.prepared.compiled.opt_level == OPT_O2
                    ),
                )
            self.results[op.op_id] = None
            self.results[fused.op_id] = rows
            self.report.note(
                "aggregate", started, time.perf_counter(), 1, 1
            )
            return True
        if isinstance(fused, Project):
            rows = []
            for chunk in ordered:
                rows.extend(chunk)
            self.results[op.op_id] = None
            self.results[fused.op_id] = rows
            return True

        with maybe_span("merge", "merge", kind=op.prep.kind):
            self.results[op.op_id] = _merge_prep_partials(op.prep, ordered)
        return False

    def _fusable_consumer(self, op: ScanStage, following):
        """The next operator, when its work can ride inside scan tasks.

        Only unstaged scans fuse (staged consumers need the complete
        sorted/partitioned input), and only with the one operator that
        consumes them: a projection (a pure per-row map) or the plan's
        fusable consumer
        (:meth:`~repro.plan.descriptors.PhysicalPlan.fusable_consumer`)
        when it is an aggregate whose generated ``*_partial`` exists and
        whose merge is exact (no DOUBLE sum/avg).  (A probe
        join takes the scan's merged rows on its serial path.)
        """
        if following is None or op.prep.kind != PREP_NONE:
            return None
        if isinstance(following, Project) and following.input_op == op.op_id:
            return following
        aggregate = self.plan.fusable_consumer(op)
        if not isinstance(aggregate, Aggregate):
            return None
        if self.names[aggregate.op_id] + "_partial" not in self.namespace:
            return None
        if self._float_gated(aggregate):
            return None
        return aggregate

    # -- join phase --------------------------------------------------------------------
    def _join(self, op: Join) -> None:
        if op.build_op is not None:
            # A build/probe join walks its probe rows in order: it has
            # no pair entry point and no split to fan out.
            self._serial(op)
            return
        pair_name = self.names[op.op_id] + "_pair"
        if pair_name not in self.namespace:
            self.report.skip("join module lacks a pair entry point")
            self._serial(op)
            return
        left = self.results[op.left_op]
        right = self.results[op.right_op]
        config = self.config
        if op.algorithm in (JOIN_MERGE, JOIN_NESTED):
            total = len(left) + len(right)
        elif op.algorithm == JOIN_HASH:
            total = sum(len(rows) for rows in left.values()) + sum(
                len(rows) for rows in right.values()
            )
        else:
            total = sum(len(rows) for rows in left) + sum(
                len(rows) for rows in right
            )
        if total < config.min_rows:
            self.report.skip(
                f"join input {total} rows (< min_rows {config.min_rows})"
            )
            self._serial(op)
            return

        tasks: list = []
        if op.algorithm in (JOIN_MERGE, JOIN_NESTED):
            bounds = chunk_bounds(len(left), self._chunk_size(len(left)))
            if len(bounds) < 2:
                self.report.skip("join outer input yields a single chunk")
                self._serial(op)
                return
            for lo, hi in bounds:
                chunk = left[lo:hi]
                if op.algorithm == JOIN_MERGE:
                    # Each outer chunk only needs inner rows from its
                    # first key onward; the merge body skips the rest.
                    start = lower_bound(
                        right, op.right_key, chunk[0][op.left_key]
                    )
                    inner = right[start:]
                else:
                    inner = right
                tasks.append(self._call(pair_name, chunk, inner))
        elif op.algorithm == JOIN_HASH:
            # Serial emission order: left directory insertion order,
            # skipping keys with no right-side partition.
            keys = [key for key in left if key in right]
            if len(keys) < 2:
                self.report.skip("fewer than two matching fine partitions")
                self._serial(op)
                return
            tasks = [
                self._call(pair_name, left[key], right[key]) for key in keys
            ]
        else:  # hybrid: corresponding coarse partitions
            if len(left) < 2:
                self.report.skip("single coarse partition")
                self._serial(op)
                return
            tasks = [
                self._call(pair_name, left[index], right[index])
                for index in range(len(left))
            ]

        started = time.perf_counter()
        chunks, workers = self._run_batch(tasks, label=f"join:o{op.op_id}")
        out: list = []
        for chunk in chunks:
            out.extend(chunk)
        self.results[op.op_id] = out
        self.report.note(
            "join", started, time.perf_counter(), workers, len(tasks)
        )

    def _multiway(self, op: MultiwayJoin) -> None:
        """Parallelize a join team as chained per-chunk/-partition tasks.

        A merge team runs the generated n-ary merge per chunk of its
        first input, the other inputs pre-sliced from the chunk's first
        key by binary search — the same decomposition as a chunked
        binary merge join, applied to all n inputs at once.  A hybrid
        team runs the team function per corresponding coarse partition
        (each task gets single-partition slices of every input).  Task
        outputs concatenate in task order, which is the serial emission
        order, so team results stay byte-identical.
        """
        name = self.names[op.op_id]
        inputs = [self.results[input_id] for input_id in op.input_ops]
        config = self.config
        if op.algorithm == JOIN_MERGE:
            total = sum(len(rows) for rows in inputs)
        else:
            total = sum(
                len(bucket) for parts in inputs for bucket in parts
            )
        if total < config.min_rows:
            self.report.skip(
                f"join team input {total} rows "
                f"(< min_rows {config.min_rows})"
            )
            self._serial(op)
            return

        tasks: list = []
        if op.algorithm == JOIN_MERGE:
            first = inputs[0]
            bounds = chunk_bounds(len(first), self._chunk_size(len(first)))
            if len(bounds) < 2:
                self.report.skip(
                    "join team first input yields a single chunk"
                )
                self._serial(op)
                return
            key0 = op.key_positions[0]
            for lo, hi in bounds:
                chunk = first[lo:hi]
                args: list = [chunk]
                for k in range(1, len(inputs)):
                    # Every row of input k whose key could match this
                    # chunk lies at or after the chunk's first key.
                    start = lower_bound(
                        inputs[k], op.key_positions[k], chunk[0][key0]
                    )
                    args.append(inputs[k][start:])
                tasks.append(self._call(name, *args))
        else:  # hybrid team: one task per corresponding coarse partition
            if len(inputs[0]) < 2:
                self.report.skip("join team has a single coarse partition")
                self._serial(op)
                return
            tasks = [
                self._call(name, *([parts[index]] for parts in inputs))
                for index in range(len(inputs[0]))
            ]

        started = time.perf_counter()
        chunks, workers = self._run_batch(
            tasks, label=f"join-team:o{op.op_id}"
        )
        out: list = []
        for chunk in chunks:
            out.extend(chunk)
        self.results[op.op_id] = out
        self.report.note(
            "join", started, time.perf_counter(), workers, len(tasks)
        )

    # -- aggregate phase ---------------------------------------------------------------
    def _aggregate(self, op: Aggregate) -> None:
        config = self.config
        partial_name = self.names[op.op_id] + "_partial"
        if partial_name not in self.namespace or (
            op.group_positions and op.algorithm != AGG_MAP
        ):
            # Sort/hybrid aggregation folds its (parallel-)staged input
            # through the serial generated function — exact, since the
            # staged input is byte-identical to a serial run's.
            self._serial(op)
            return
        if self._float_gated(op):
            self.report.skip(
                "DOUBLE sum/avg is order-sensitive "
                "(merging partials would reassociate it)"
            )
            self._serial(op)
            return
        rows = self.results[op.input_op]
        if len(rows) < config.min_rows:
            self.report.skip(
                f"aggregate input {len(rows)} rows "
                f"(< min_rows {config.min_rows})"
            )
            self._serial(op)
            return
        bounds = chunk_bounds(len(rows), self._chunk_size(len(rows)))
        if len(bounds) < 2:
            self._serial(op)
            return
        tasks = [self._call(partial_name, rows[lo:hi]) for lo, hi in bounds]
        started = time.perf_counter()
        partials, workers = self._run_batch(
            tasks, label=f"aggregate:o{op.op_id}"
        )
        input_layout = self.plan.op(op.input_op).output_layout
        with maybe_span("merge", "merge", kind="aggregate-partials"):
            self.results[op.op_id] = merge_aggregate_partials(
                op,
                input_layout,
                partials,
                self.params,
                directory_order=self.prepared.compiled.opt_level == OPT_O2,
            )
        self.report.note(
            "aggregate", started, time.perf_counter(), workers, len(tasks)
        )

    # -- restage -----------------------------------------------------------------------
    def _restage(self, op: Restage) -> None:
        """Chunk-parallel re-staging of a large intermediate.

        Each task runs the generated ``*_chunk`` entry point over one
        contiguous row chunk; chunk outputs reassemble through the same
        order-preserving finishers as parallel scan staging (stable
        k-way merges for sorts, run-order bucket merges for
        partitions), so the restaged structure is byte-identical to the
        serial function's.
        """
        chunk_name = self.names[op.op_id] + "_chunk"
        if chunk_name not in self.namespace:
            self.report.skip("restage module lacks a chunk entry point")
            self._serial(op)
            return
        if op.prep.kind == PREP_PARTITION_SORT and op.prep.fine:
            # Same guard as scan staging: no parallel merge exists for
            # the fine partition-sort combination (the optimizer never
            # builds it today).
            self.report.skip(
                "restage: fine partition-sort staging has no parallel "
                "merge"
            )
            self._serial(op)
            return
        rows = self.results[op.input_op]
        config = self.config
        if len(rows) < config.min_rows:
            self.report.skip(
                f"restage input {len(rows)} rows "
                f"(< min_rows {config.min_rows})"
            )
            self._serial(op)
            return
        bounds = chunk_bounds(len(rows), self._chunk_size(len(rows)))
        if len(bounds) < 2:
            self.report.skip("restage input yields a single chunk")
            self._serial(op)
            return
        tasks = [self._call(chunk_name, rows[lo:hi]) for lo, hi in bounds]
        started = time.perf_counter()
        partials, workers = self._run_batch(
            tasks, label=f"restage:o{op.op_id}"
        )
        with maybe_span("merge", "merge", kind=op.prep.kind):
            self.results[op.op_id] = _merge_prep_partials(op.prep, partials)
        self.report.note(
            "stage", started, time.perf_counter(), workers, len(tasks)
        )

    # -- final phase -------------------------------------------------------------------
    def _sort(self, op: Sort) -> None:
        rows = self.results[op.input_op]
        config = self.config
        if len(rows) < config.min_rows:
            self.report.skip(
                f"sort input {len(rows)} rows (< min_rows {config.min_rows})"
            )
            self._serial(op)
            return
        bounds = chunk_bounds(len(rows), self._chunk_size(len(rows)))
        if len(bounds) < 2:
            self._serial(op)
            return
        # Each task sorts a contiguous slice copy with the generated
        # ORDER BY function; the k-way merge's run-order tie-break then
        # reproduces the serial stable sort exactly.
        name = self.names[op.op_id]
        tasks = [self._call(name, rows[lo:hi]) for lo, hi in bounds]
        started = time.perf_counter()
        runs, workers = self._run_batch(tasks, label=f"sort:o{op.op_id}")
        with maybe_span("merge", "merge", kind="ordered-runs"):
            self.results[op.op_id] = merge_ordered_runs(runs, op.keys)
        self.report.note(
            "final", started, time.perf_counter(), workers, len(tasks)
        )


def _merge_prep_partials(prep, partials: list):
    """Reassemble per-chunk/per-morsel staging outputs for one prep.

    Shared by parallel scan staging and parallel restaging: the chunk
    structure differs (page-range morsels vs row chunks) but the
    partial outputs and their order-preserving finishers are the same.
    Callers must keep the fine partition-sort combination serial —
    there is no parallel merge for its value-directory shape.
    """
    if prep.kind == PREP_SORT:
        return merge_sorted_runs(partials, prep.keys)
    if prep.kind == PREP_PARTITION:
        return (
            merge_fine_partition_runs(partials)
            if prep.fine
            else merge_partition_runs(partials)
        )
    if prep.kind == PREP_PARTITION_SORT:
        return merge_partition_sorted_runs(partials, prep.keys)
    # PREP_NONE: plain chunks concatenate in task order.
    rows: list = []
    for chunk in partials:
        rows.extend(chunk)
    return rows


# -- aggregate merging ------------------------------------------------------------------
#
# Generated ``*_partial`` functions return ``{group key: [state, ...]}``
# with one 4-slot state ``[sum, count, minimum, maximum]`` per aggregate
# node, in :func:`collect_aggregates` order.  The representation is
# mergeable without knowing the aggregate function: sums and counts add,
# minima/maxima compare.

_SUM, _COUNT, _MIN, _MAX = range(4)


def merge_aggregate_partials(
    op: Aggregate,
    input_layout,
    partials: list[dict],
    params: tuple = (),
    directory_order: bool = True,
) -> list[tuple]:
    """Fold per-chunk partial states and finalize output rows.

    Partials must arrive in chunk (page/row) order: group keys are
    merged first-seen, which reproduces the serial scan's discovery
    order and therefore the serial output order (for map aggregation,
    via the reconstructed value directories of Figure 4(b)).
    """
    merged: dict[tuple, list[list]] = {}
    for partial in partials:
        for key, states in partial.items():
            acc = merged.get(key)
            if acc is None:
                # Adopt the worker-local states outright (each partial
                # dict is owned by exactly one chunk).
                merged[key] = states
            else:
                for state, other in zip(acc, states):
                    state[_SUM] += other[_SUM]
                    state[_COUNT] += other[_COUNT]
                    if other[_MIN] is not None and (
                        state[_MIN] is None or other[_MIN] < state[_MIN]
                    ):
                        state[_MIN] = other[_MIN]
                    if other[_MAX] is not None and (
                        state[_MAX] is None or other[_MAX] > state[_MAX]
                    ):
                        state[_MAX] = other[_MAX]

    aggregates = collect_aggregates(op)
    if not op.group_positions:
        # A global aggregate yields exactly one row even over no input.
        if not merged:
            merged[()] = _empty_states(aggregates)
        keys = [()]
    else:
        keys = list(merged)
        if directory_order and op.algorithm == AGG_MAP and op.directory_sizes:
            keys = _map_directory_order(op, keys)

    index_of = {node: k for k, node in enumerate(aggregates)}
    position_of = {pos: i for i, pos in enumerate(op.group_positions)}

    def evaluate(expr, key: tuple, states: list[list]):
        if isinstance(expr, BoundAggregate):
            return _state_result(expr.func, states[index_of[expr]])
        if isinstance(expr, BoundArithmetic):
            left = evaluate(expr.left, key, states)
            right = evaluate(expr.right, key, states)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            return left / right
        if isinstance(expr, BoundColumn):
            return key[position_of[input_layout.position(expr)]]
        if isinstance(expr, BoundParameter):
            return params[expr.index]
        return expr.value  # BoundLiteral

    return [
        tuple(
            evaluate(output.expr, key, merged[key]) for output in op.outputs
        )
        for key in keys
    ]


def _state_result(func: str, state: list):
    if func == "count":
        return state[_COUNT]
    if func == "sum":
        return state[_SUM]
    if func == "avg":
        return state[_SUM] / state[_COUNT] if state[_COUNT] else None
    if func == "min":
        return state[_MIN]
    return state[_MAX]


def _empty_states(aggregates: list[BoundAggregate]) -> list[list]:
    return [
        [0.0 if node.dtype == DOUBLE else 0, 0, None, None]
        for node in aggregates
    ]


def _map_directory_order(op: Aggregate, keys: list[tuple]) -> list[tuple]:
    """Order groups the way serial map aggregation emits them.

    The serial template walks group offsets ``Σ_i M_i[v_i]·Π_{j>i}|M_j|``
    in ascending order, with each value directory ``M_i`` built in
    first-seen order.  Walking merged keys in first-seen order rebuilds
    identical directories (a new attribute value always arrives with a
    new key), and overflowing a directory raises the same
    :class:`MapDirectoryOverflow` the generated code would, so the
    caller's hybrid-aggregation fallback engages exactly as in serial
    execution.
    """
    sizes = [max(size, 1) for size in op.directory_sizes]
    directories: list[dict] = [{} for _ in op.group_positions]
    for key in keys:
        for g, value in enumerate(key):
            directory = directories[g]
            if value not in directory:
                if len(directory) >= sizes[g]:
                    raise MapDirectoryOverflow()
                directory[value] = len(directory)
    multipliers = []
    for g in range(len(sizes)):
        product = 1
        for j in range(g + 1, len(sizes)):
            product *= sizes[j]
        multipliers.append(product)
    return sorted(
        keys,
        key=lambda key: sum(
            directories[g][key[g]] * multipliers[g]
            for g in range(len(key))
        ),
    )
