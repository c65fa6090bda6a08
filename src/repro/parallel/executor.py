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

Each phase's units of work are *pure-data task descriptions*
(:class:`~repro.parallel.proc.CallTask`,
:class:`~repro.parallel.proc.ScanTask`) executed by a pluggable
:mod:`~repro.parallel.backend`: the thread backend claims tasks
dynamically from a shared dispatcher and runs generated code against
the live context, while the process backend pickles the same tasks to
``ProcessPoolExecutor`` workers that re-import the generated module
from the compiler's work directory — CPU-bound in-memory phases scale
past the GIL that way.  Every merge is order-preserving, which keeps
parallel output row-for-row identical to a serial run for every plan
shape and either backend.  Operators below the configured size
thresholds simply run their serial generated function in plan order,
so a scheduled run degrades gracefully instead of falling back
wholesale.

Scheduling comes in two flavours.  The default walks the operator
list with a barrier after each operator.  With
``ParallelConfig.pipeline`` on, the run instead builds a *dependency
graph*: every operator (with a scan and its fusable consumer collapsed
into one node) is keyed by the op ids it produces, tracks completion
of its input operators' task sets, and launches the moment the last
one finishes — so independent scans stage concurrently, a CPU-bound
join overlaps a latency-bound scan of a later input, and a restage
starts the instant the join feeding it completes.  Task order inside
every node is unchanged, each node's finisher still reassembles
results order-preservingly, and node results only become visible to
dependents after the completion handshake, so pipelined rows are
byte-identical to barrier rows — only the wall-clock interleaving
changes.  (Per-partition completion collapses to per-input completion
because every page-range staging task contributes rows to every
partition; a pair task's inputs are therefore "staged" exactly when
both sides' staging task sets drain.)  :class:`ExecutionStats` reports
the per-phase timings, worker counts, the backend that ran each phase,
cross-phase overlap seconds and any serial decisions.
"""

from __future__ import annotations

import pickle
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
from repro.parallel.backend import (
    BackendRetired,
    PoolAbandoned,
    ProcessBackend,
    TaskNotPicklable,
    ThreadBackend,
)
from repro.parallel.cost import (
    CostModel,
    batch_payload_bytes,
    cost_kind,
)
from repro.parallel.merge import (
    chunk_bounds,
    lower_bound,
    merge_fine_partition_runs,
    merge_ordered_runs,
    merge_partition_runs,
    merge_partition_sorted_runs,
    merge_sorted_runs,
)
from repro.parallel.morsel import coarse_morsel_pages, morsels_for
from repro.parallel.proc import CallTask, ScanTask
from repro.parallel.stage import (
    PHASE_OF,
    PHASE_ORDER,
    StageAccess,
    result_rows,
    serial_walk,
)
from repro.parallel.stats import (
    EXECUTOR_AUTO,
    EXECUTOR_MIXED,
    EXECUTOR_PROCESS,
    EXECUTOR_THREAD,
    ExecutionStats,
    ParallelConfig,
    PhaseStats,
)
from repro.plan.descriptors import (
    AGG_MAP,
    Aggregate,
    JOIN_HASH,
    JOIN_HYBRID,
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


def _picklable(value) -> bool:
    try:
        pickle.dumps(value)
    except Exception:  # noqa: BLE001 - any failure means "keep local"
        return False
    return True


@dataclass
class _Report:
    """What a scheduled run did: per-phase stats plus serial notes.

    Thread-safe: under pipelined scheduling several operator nodes
    report concurrently, so every mutation goes through one lock.
    """

    skips: list[str] = field(default_factory=list)
    phases: dict[str, PhaseStats] = field(default_factory=dict)
    morsels: int = 0
    pages: int = 0
    #: Whether the adaptive placement chooser routed this run's batches
    #: (set once at run entry; drives mixed-backend reporting).
    adaptive: bool = False
    #: ``(batch kind, backend)`` → batches the chooser routed there.
    placements: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Partition-staged scans that published buckets incrementally.
    handoffs: int = 0
    #: Process-backend serialization accounting for this run.
    shipped_tasks: int = 0
    shipped_bytes: int = 0
    #: ``(phase, started, ended)`` wall-clock spans of every phase
    #: contribution, for cross-phase overlap accounting.
    spans: list[tuple[str, float, float]] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def skip(self, reason: str, mark_span: bool = True) -> None:
        # When tracing, mark the scheduling node so EXPLAIN ANALYZE can
        # flag the serial fallback per operator, not just in run notes.
        # Run-level skips (backend fallback) happen under the engine's
        # execute span, which the category guard excludes.  A cache
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
        backend: str = EXECUTOR_THREAD,
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
                    backend=backend,
                )
            else:
                entry.seconds += seconds
                entry.workers = max(entry.workers, workers)
                entry.tasks += tasks
                if backend != entry.backend:
                    if self.adaptive:
                        # The chooser split this phase across backends.
                        entry.backend = EXECUTOR_MIXED
                    elif backend == EXECUTOR_PROCESS:
                        entry.backend = backend

    def add_scan(self, morsels: int, pages: int) -> None:
        with self._lock:
            self.morsels += morsels
            self.pages += pages

    def add_placement(self, kind: str, backend: str) -> None:
        with self._lock:
            key = (kind, backend)
            self.placements[key] = self.placements.get(key, 0) + 1

    def add_handoff(self) -> None:
        with self._lock:
            self.handoffs += 1

    def add_shipped(self, tasks: int, nbytes: int) -> None:
        with self._lock:
            self.shipped_tasks += tasks
            self.shipped_bytes += nbytes

    @property
    def went_parallel(self) -> bool:
        return any(phase.workers > 1 for phase in self.phases.values())

    def backend_used(self) -> str:
        """The backend label this run reports.

        ``"process"`` when any phase shipped tasks out of process;
        under adaptive placement, ``"mixed"`` when the chooser split
        the run's batches across both backends (serial phases, whose
        backend field is just the thread default, do not count).
        """
        if self.adaptive:
            backends = {
                phase.backend
                for phase in self.phases.values()
                if phase.workers > 1
            }
            if EXECUTOR_MIXED in backends or (
                EXECUTOR_THREAD in backends and EXECUTOR_PROCESS in backends
            ):
                return EXECUTOR_MIXED
            if EXECUTOR_PROCESS in backends:
                return EXECUTOR_PROCESS
            return EXECUTOR_THREAD
        if any(
            phase.backend == EXECUTOR_PROCESS
            for phase in self.phases.values()
        ):
            return EXECUTOR_PROCESS
        return EXECUTOR_THREAD

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
        concurrently count: they are exactly the barrier the pipelined
        scheduler removes).  Under barrier scheduling nodes run one
        after another, spans never intersect, and every overlap is 0.
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

    #: Pool headroom multiplier for pipelined scheduling: up to this
    #: many operator nodes' batches can hold their full worker fan-out
    #: simultaneously before queuing (deeper plans still complete —
    #: extra batches just wait for free slots).
    PIPELINE_BATCHES = 4

    def __init__(
        self,
        config: ParallelConfig | None = None,
        obs: Observability | None = None,
    ):
        self.config = config if config is not None else ParallelConfig()
        self.obs = obs if obs is not None else default_observability()
        self._lock = threading.Lock()
        self._thread = self._new_thread_backend(self.config)
        #: Process pool, created lazily on the first run that actually
        #: ships tasks (most queries never pay for worker processes).
        self._process: ProcessBackend | None = None
        #: Compute-per-byte model behind ``executor="auto"``.  Owned
        #: by the executor (not a run) so rates learned from measured
        #: batch latencies persist across queries and reconfigures.
        self.cost = CostModel()
        #: Zero-arg callable yielding cross-query operator profile
        #: totals (:meth:`~repro.obs.profile.ProfileAggregator.kind_totals`),
        #: wired by the embedding database so the cost model starts
        #: from observed per-operator rates instead of static seeds.
        self.profile_source = None
        self._profile_seeded = False
        #: Optional :class:`~repro.parallel.intermediates.IntermediateCache`
        #: wired by the embedding database; when set, staged scan
        #: outputs are reused across executions keyed on the table's
        #: version epoch (see :class:`~repro.parallel.stage.StageAccess`).
        self.intermediates = None
        self.parallel_runs = 0
        self.serial_runs = 0

    def _seed_cost_model(self) -> None:
        """Pre-seed cost rates from cross-query profiles, once.

        Called lazily on the first adaptive run; profile totals are
        advisory, so any failure reading them is swallowed and the
        static seeds stand.
        """
        source = self.profile_source
        if source is None or self._profile_seeded:
            return
        self._profile_seeded = True
        try:
            totals = source()
        except Exception:  # noqa: BLE001 - profiles are advisory
            return
        self.cost.refine_from_profile(totals)

    def _new_thread_backend(self, config: ParallelConfig) -> ThreadBackend:
        return ThreadBackend(
            config.workers,
            task_timeout=config.task_timeout,
            concurrent_batches=(
                self.PIPELINE_BATCHES if config.pipeline else 1
            ),
            registry=self.obs.registry,
        )

    # -- lifecycle ---------------------------------------------------------------
    def thread_backend(self) -> ThreadBackend:
        with self._lock:
            return self._thread

    def process_backend(self) -> ProcessBackend:
        with self._lock:
            if self._process is None:
                self._process = ProcessBackend(
                    self.config.workers,
                    task_timeout=self.config.task_timeout,
                    registry=self.obs.registry,
                )
            return self._process

    def reconfigure(self, config: ParallelConfig) -> None:
        """Swap the configuration and retire the current worker pools.

        Safe against in-flight runs: they captured the old config and
        backends on entry and already hold futures on the old pools,
        which drain them before shutting down; later runs lazily build
        fresh pools sized to the new configuration.
        """
        with self._lock:
            thread, self._thread = self._thread, self._new_thread_backend(
                config
            )
            process, self._process = self._process, None
            self.config = config
        thread.close()
        if process is not None:
            process.close()

    def close(self) -> None:
        with self._lock:
            thread, self._thread = self._thread, self._new_thread_backend(
                self.config
            )
            process, self._process = self._process, None
        thread.close()
        if process is not None:
            process.close()

    # -- execution ----------------------------------------------------------------
    def run(
        self,
        prepared,
        params: tuple = (),
        probe: NullProbe = NULL_PROBE,
    ) -> tuple[list[tuple], ExecutionStats]:
        """Execute a :class:`~repro.core.engine.PreparedQuery`.

        Returns ``(rows, stats)``; rows are identical to what the serial
        entry point produces for the same inputs.
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

        # The first decision, from the data: schedule only when some
        # scanned page can wait.  A requested process backend is
        # honoured regardless (processes scale CPU-bound work past the
        # GIL), and adaptive placement still routes each batch, running
        # the thread-routed ones inline when nothing can wait.
        params = tuple(params)
        placement = config.executor
        waiting = ""
        if config.workers <= 1:
            reason = "single worker"
        else:
            waiting = self.waiting_table(prepared.plan)
            if not waiting and placement == EXECUTOR_THREAD:
                reason = (
                    "all scanned pages resident: nothing for threads "
                    "to overlap"
                )
        if reason:
            rows, phases, notes = serial_walk(
                prepared, params, self.intermediates, config.min_pages
            )
            with self._lock:
                self.serial_runs += 1
            return rows, ExecutionStats(
                parallel=False,
                rows=len(rows),
                elapsed_seconds=time.perf_counter() - started,
                reason=reason,
                phases=phases,
                notes=notes,
            )

        report = _Report()
        report.skip(
            f"scheduled: {waiting or placement + ' placement requested'}",
            mark_span=False,
        )
        process: ProcessBackend | None = None
        chooser: CostModel | None = None
        if placement in (EXECUTOR_PROCESS, EXECUTOR_AUTO):
            adaptive = placement == EXECUTOR_AUTO
            prefix = "adaptive placement: " if adaptive else ""
            if prepared.compiled.opt_level != OPT_O2:
                # O0 generated code calls closures living in this
                # process's context; those cannot cross a process
                # boundary, so the whole run rides the thread backend.
                report.skip(
                    f"{prefix}O0 closure plan: process backend fell "
                    "back to the thread backend"
                )
            elif not _picklable(params):
                # Every shipped task carries the parameter vector; a
                # value that refuses to pickle dooms all of them, so
                # decide once up front instead of per batch.
                report.skip(
                    f"{prefix}unpicklable parameter vector: process "
                    "backend fell back to the thread backend"
                )
            else:
                process = self.process_backend()
                if adaptive:
                    chooser = self.cost
                    report.adaptive = True
                    self._seed_cost_model()
        scheduled = _ScheduledRun(
            self, prepared, params, config, report, process, chooser,
            inline=chooser is not None and not waiting,
        )
        rows = scheduled.execute()
        elapsed = time.perf_counter() - started
        if not report.went_parallel:
            with self._lock:
                self.serial_runs += 1
            return rows, ExecutionStats(
                parallel=False,
                scheduled=True,
                rows=len(rows),
                elapsed_seconds=elapsed,
                reason="; ".join(report.skips) or "no parallelizable phase",
                phases=report.ordered_phases(),
                notes=list(report.skips),
            )
        with self._lock:
            self.parallel_runs += 1
        notes = list(report.skips)
        if report.shipped_tasks:
            notes.append(
                f"process backend shipped {report.shipped_tasks} task(s), "
                f"~{report.shipped_bytes / 1024:.0f} KiB of payloads "
                f"serialized"
            )
        if report.adaptive and report.placements:
            routed = ", ".join(
                f"{kind}→{backend}×{count}"
                for (kind, backend), count in sorted(
                    report.placements.items()
                )
            )
            notes.append(f"adaptive placement routed {routed}")
        if report.handoffs:
            notes.append(
                f"incremental partition hand-off on {report.handoffs} "
                "staging node(s)"
            )
        return rows, ExecutionStats(
            parallel=True,
            scheduled=True,
            backend=report.backend_used(),
            placement=placement,
            pipelined=scheduled.pipelined,
            workers=report.max_workers(),
            morsels=report.morsels,
            pages=report.pages,
            rows=len(rows),
            elapsed_seconds=elapsed,
            phases=report.ordered_phases(),
            notes=notes,
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
        executor: ParallelExecutor,
        prepared,
        params: tuple,
        config: ParallelConfig,
        report: _Report,
        process: ProcessBackend | None = None,
        chooser: CostModel | None = None,
        inline: bool = False,
    ):
        self.executor = executor
        self.prepared = prepared
        self.plan = prepared.plan
        self.namespace = prepared.compiled.namespace
        self.names = prepared.generated.function_names
        self.params = params
        self.config = config
        self.report = report
        #: Non-None when this run ships eligible batches out of process.
        self.process = process
        #: Non-None when ``executor="auto"`` routes each batch through
        #: the cost model (requires a live process backend to route to).
        self.chooser = chooser
        #: Adaptive run with every scanned page resident: batches the
        #: chooser routes to threads run on the calling thread instead
        #: (threads would only interleave the same computation).
        self.inline = inline
        self.module_spec = prepared.compiled.module_spec()
        #: Span the scheduler's node spans parent under.  Captured on
        #: the constructing thread (where the engine's execute span is
        #: active): node runners later execute on pipeline driver
        #: threads, whose contexts start empty.
        self.parent_span = current_span()
        self.ctx = build_context(
            self.plan, opt_level=prepared.compiled.opt_level, params=params
        )
        self.access = StageAccess(
            prepared, self.ctx, params, executor.intermediates,
            config.min_pages,
            lambda remark: report.skip(remark, mark_span=False),
        )
        #: op_id → materialized result (None for a scan fused away).
        self.results: dict[int, object] = {}
        #: ScanStage op ids whose partition staging may publish buckets
        #: incrementally (see :class:`PartitionHandoff`).  Only
        #: thread-placement pipelined runs qualify: hand-off pair tasks
        #: are blocking thunks, which cannot ship out of process.
        self._handoff_ops: frozenset[int] = (
            self._handoff_eligible()
            if config.pipeline and process is None
            else frozenset()
        )
        #: Whether the dependency-driven driver actually ran (set by
        #: :meth:`execute`; False for single-node plans even when the
        #: config asks for pipelining).
        self.pipelined = False

    def execute(self) -> list[tuple]:
        nodes = self._build_nodes()
        # A single-node plan has nothing to pipeline; note which
        # scheduler actually ran so the stats report execution, not
        # configuration.
        self.pipelined = self.config.pipeline and len(nodes) > 1
        if self.pipelined:
            self._run_pipelined(nodes)
        else:
            for node in nodes:
                node.run()
        return self._input(self.plan.root.op_id)

    def _handoff_eligible(self) -> frozenset[int]:
        """ScanStage op ids allowed to publish buckets incrementally.

        Eligible: a partition-prep scan consumed by exactly one
        :class:`Join` that walks its partitions pairwise — fine
        partitions feeding a hash join whose other input is partitioned
        too, coarse partitions feeding a hybrid join.  A build/probe
        hash join runs serially over its whole build side, so a
        hand-off there would only start a merge thread to wait on.  A
        self-join consuming one staging on both sides appears twice in
        the consumers map and is naturally excluded (its pair
        enumeration needs the whole directory at once), as is anything
        feeding a join team, restage or aggregate.
        """
        consumers: dict[int, list] = {}
        for op in self.plan.operators:
            for input_id in op.inputs:
                consumers.setdefault(input_id, []).append(op)

        def partitioned(op_id: int) -> bool:
            prep = getattr(self.plan.op(op_id), "prep", None)
            return prep is not None and prep.kind == PREP_PARTITION

        eligible = set()
        for op in self.plan.operators:
            if not isinstance(op, ScanStage):
                continue
            if op.prep.kind != PREP_PARTITION:
                continue
            users = consumers.get(op.op_id, [])
            if len(users) != 1 or not isinstance(users[0], Join):
                continue
            join = users[0]
            if (
                op.prep.fine
                and join.algorithm == JOIN_HASH
                and all(partitioned(i) for i in join.inputs)
            ):
                eligible.add(op.op_id)
            elif not op.prep.fine and join.algorithm == JOIN_HYBRID:
                eligible.add(op.op_id)
        return frozenset(eligible)

    def _input(self, op_id: int):
        """One operator input, with incremental hand-offs materialized.

        Most consumers need the complete staging output; a hand-off
        reaching one of them blocks until the merge thread finishes,
        then caches the ordinary merged result in its place.
        """
        value = self.results[op_id]
        if isinstance(value, PartitionHandoff):
            value = value.result()
            self.results[op_id] = value
        return value

    # -- the task graph ----------------------------------------------------------------
    def _build_nodes(self) -> list["_Node"]:
        """The dependency graph: one node per operator, scans fused.

        A scan and its fusable consumer (projection / partial-able
        aggregation) collapse into one node producing both op ids, so
        the fused post-function still rides inside the scan tasks.
        Node order is plan order, which the barrier driver executes
        directly; the pipelined driver only honors ``deps``.
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
        land under the right node — on the barrier driver (the calling
        thread) and on pipelined driver threads alike.
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
        out on the shared worker pools, so independent nodes' tasks
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
    def _read_pages(self, binding: str, page_lo: int, page_hi: int) -> tuple:
        """Materialize a scan task's raw page bytes for shipping.

        Reads go through the live buffer pool in the parent, so worker
        processes never touch storage; ``bytes()`` snapshots each page
        buffer before it crosses the pickle boundary.
        """
        table = self.ctx.tables[binding]
        return tuple(
            bytes(table.read_page(page_no).data)
            for page_no in range(page_lo, page_hi)
        )

    def _thunk(self, task):
        """Materialize one task description for in-process execution."""
        fn = self.namespace[task.func]
        ctx = self.ctx
        if isinstance(task, ScanTask):
            post = (
                self.namespace[task.post_func]
                if task.post_func is not None
                else None
            )

            def run_scan():
                rows = fn(ctx, task.page_lo, task.page_hi)
                return post(ctx, rows) if post is not None else rows

            return run_scan
        return lambda: fn(ctx, *task.args)

    def _run_batch(
        self, tasks: list, label: str | None = None, affinity=None
    ) -> tuple[list, int, str]:
        """Run one phase's task batch on the active backend.

        Returns ``(results, workers, backend_name)`` with results in
        task order.  Under ``executor="auto"`` the cost model routes
        the batch to whichever backend it estimates cheaper; under any
        placement the measured batch latency feeds back into the model,
        so forced thread/process runs calibrate later adaptive ones.
        A batch whose payloads refuse to pickle — or whose process pool
        was retired by a concurrent reconfigure — re-runs on the thread
        backend: the scheduler's structure (and therefore result order)
        is identical either way, only the substrate changes.  ``label``
        names the scheduling node in watchdog diagnostics and task
        spans; ``affinity`` (one partition id per task) makes thread
        dispatch sticky per worker with stealing fallback.
        """
        node_span = current_span()
        payload = batch_payload_bytes(tasks)
        kind = cost_kind(label)
        cost = self.executor.cost
        use_process = self.process is not None
        if use_process and self.chooser is not None:
            decision = self.chooser.choose(
                kind, payload, len(tasks), warm=self.process.warm
            )
            use_process = decision.backend == EXECUTOR_PROCESS
            if node_span is not None:
                node_span.set(
                    placement=decision.backend,
                    placement_reason=decision.reason,
                )
        if use_process:
            try:
                task_meta: list | None = (
                    [] if node_span is not None else None
                )
                started = time.perf_counter()
                results, workers, shipped = self.process.run_batch(
                    self.module_spec,
                    self.params,
                    tasks,
                    self._read_pages,
                    label=label,
                    task_meta=task_meta,
                )
                cost.observe(
                    kind, EXECUTOR_PROCESS, payload, len(tasks),
                    time.perf_counter() - started,
                )
                self.report.add_shipped(len(tasks), shipped)
                if self.chooser is not None:
                    self.report.add_placement(kind, EXECUTOR_PROCESS)
                if node_span is not None:
                    for meta in task_meta:
                        node_span.child(
                            f"task {meta['index']}",
                            "task",
                            start=meta["started"],
                            end=meta["ended"],
                            thread_id=meta["thread_id"],
                            pid=meta["pid"],
                            index=meta["index"],
                            queue_seconds=max(
                                0.0, meta["started"] - meta["submitted"]
                            ),
                        )
                    node_span.set(
                        tasks=len(tasks),
                        workers=workers,
                        backend=EXECUTOR_PROCESS,
                        shipped_bytes=shipped,
                    )
                return results, workers, EXECUTOR_PROCESS
            except BackendRetired as exc:
                # Subclass of TaskNotPicklable — catch it first so the
                # note names the real cause.
                self.report.skip(
                    "process pool retired mid-query "
                    f"({str(exc)[:80]}): batch re-ran on the thread "
                    "backend"
                )
            except TaskNotPicklable as exc:
                self.report.skip(
                    "unpicklable task payload "
                    f"({str(exc)[:80]}): batch re-ran on the thread "
                    "backend"
                )
        thunks = [self._thunk(task) for task in tasks]
        if node_span is not None:
            thunks = self._wrap_traced(thunks, node_span)
        started = time.perf_counter()
        if self.inline:
            results, workers = [thunk() for thunk in thunks], 1
        else:
            results, workers = self.executor.thread_backend().run_thunks(
                thunks, self.config.workers, label=label,
                affinity=affinity,
            )
        cost.observe(
            kind, EXECUTOR_THREAD, payload, len(tasks),
            time.perf_counter() - started,
        )
        if self.chooser is not None:
            self.report.add_placement(kind, EXECUTOR_THREAD)
        if node_span is not None:
            if self.chooser is not None and use_process:
                # The chooser picked the process backend but the batch
                # fell back; report where it actually ran.
                node_span.set(
                    placement=EXECUTOR_THREAD,
                    placement_reason=(
                        "process batch fell back to the thread backend"
                    ),
                )
            node_span.set(
                tasks=len(tasks), workers=workers, backend=EXECUTOR_THREAD
            )
        return results, workers, EXECUTOR_THREAD

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

    def _run_thunks(
        self, thunks: list, label: str | None = None
    ) -> tuple[list, int]:
        """Run raw thunks on the thread backend (with task spans).

        The substrate for batches that exist only as live closures —
        incremental hand-off pairs, whose thunks block on bucket
        publication — and therefore can never ship out of process.
        """
        node_span = current_span()
        if node_span is not None:
            thunks = self._wrap_traced(thunks, node_span)
        results, workers = self.executor.thread_backend().run_thunks(
            thunks, self.config.workers, label=label
        )
        if node_span is not None:
            node_span.set(
                tasks=len(thunks), workers=workers, backend=EXECUTOR_THREAD
            )
        return results, workers

    def _serial(self, op) -> None:
        """Run one operator's serial generated function in plan order."""
        started = time.perf_counter()
        fn = self.namespace[self.names[op.op_id]]
        args = [self._input(input_id) for input_id in op.inputs]
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
        DOUBLE addition and the config demands bit-identical results."""
        if self.config.allow_float_reorder:
            return False
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
        # A fused or incrementally handed-off scan never materializes
        # a complete staging, so it has nothing to bank or reuse.
        answer = self.access.lookup(
            op,
            bankable=fused is None and op.op_id not in self._handoff_ops,
        )
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
        pages_per = config.morsel_pages
        if self.process is not None:
            # Process morsels are coarser: each one's page bytes are
            # pickled across the boundary, so fewer, larger units keep
            # the serialization toll amortized.
            pages_per = coarse_morsel_pages(
                table.num_pages, config.workers, config.morsel_pages
            )
        morsels = morsels_for(table.num_pages, pages_per)
        if len(morsels) < 2:
            self.report.skip(f"table {op.binding!r}: single morsel")
            self._serial(op)
            return False

        scan_name = self.names[op.op_id]
        post_name = None
        if isinstance(fused, Aggregate):
            post_name = self.names[fused.op_id] + "_partial"
        elif isinstance(fused, Project):
            post_name = self.names[fused.op_id]

        started = time.perf_counter()
        tasks = [
            ScanTask(
                func=scan_name,
                binding=op.binding,
                page_lo=morsel.page_lo,
                page_hi=morsel.page_hi,
                post_func=post_name,
            )
            for morsel in morsels
        ]
        # Page-range affinity: partition the table's page space evenly
        # across workers and tag each morsel with its stripe, so the
        # same worker walks the same contiguous pages on every run
        # (sequential reads, warm buffer-pool reuse) with stealing as
        # the skew fallback.  Process dispatch ignores the tags.
        affinity = [
            min(
                morsel.page_lo * config.workers // max(table.num_pages, 1),
                config.workers - 1,
            )
            for morsel in morsels
        ]
        ordered, workers, backend = self._run_batch(
            tasks, label=f"stage:o{op.op_id}", affinity=affinity
        )
        self.report.note(
            "stage", started, time.perf_counter(), workers,
            len(morsels), backend,
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

        if op.op_id in self._handoff_ops:
            # Incremental hand-off: publish partition buckets as their
            # merges finish, so the consuming join launches pair tasks
            # on ready buckets while siblings still merge.
            handoff = PartitionHandoff(ordered, fine=op.prep.fine)
            handoff.start()
            self.results[op.op_id] = handoff
            self.report.add_handoff()
            return False

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
        whose merge is exact under the float-reorder policy.  (A probe
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
        if isinstance(left, PartitionHandoff) or isinstance(
            right, PartitionHandoff
        ):
            self._join_incremental(op, pair_name)
            return
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
                tasks.append(CallTask(func=pair_name, args=(chunk, inner)))
        elif op.algorithm == JOIN_HASH:
            # Serial emission order: left directory insertion order,
            # skipping keys with no right-side partition.
            keys = [key for key in left if key in right]
            if len(keys) < 2:
                self.report.skip("fewer than two matching fine partitions")
                self._serial(op)
                return
            tasks = [
                CallTask(func=pair_name, args=(left[key], right[key]))
                for key in keys
            ]
        else:  # hybrid: corresponding coarse partitions
            if len(left) < 2:
                self.report.skip("single coarse partition")
                self._serial(op)
                return
            tasks = [
                CallTask(func=pair_name, args=(left[index], right[index]))
                for index in range(len(left))
            ]

        started = time.perf_counter()
        chunks, workers, backend = self._run_batch(
            tasks, label=f"join:o{op.op_id}"
        )
        out: list = []
        for chunk in chunks:
            out.extend(chunk)
        self.results[op.op_id] = out
        self.report.note(
            "join", started, time.perf_counter(), workers, len(tasks),
            backend,
        )

    def _join_incremental(self, op: Join, pair_name: str) -> None:
        """Hash/hybrid join consuming incrementally published buckets.

        Pair tasks are blocking thunks: each waits for its own bucket
        pair's publication, so the first pairs run while sibling
        buckets still merge on the hand-off thread.  Task order —
        hence output concatenation order — matches the barrier join
        exactly; only launch timing changes.
        """
        left = self.results[op.left_op]
        right = self.results[op.right_op]
        config = self.config
        total = _partition_rows(left) + _partition_rows(right)
        if total < config.min_rows:
            self.report.skip(
                f"join input {total} rows (< min_rows {config.min_rows})"
            )
            self._serial(op)
            return
        if op.algorithm == JOIN_HASH:
            # Serial emission order: left directory insertion order
            # (the hand-off enumerates keys first-seen across runs,
            # exactly like the barrier merge), skipping keys with no
            # right-side partition.
            left_keys = (
                left.keys
                if isinstance(left, PartitionHandoff)
                else list(left)
            )
            right_keys = (
                right.key_set
                if isinstance(right, PartitionHandoff)
                else right
            )
            keys = [key for key in left_keys if key in right_keys]
            if len(keys) < 2:
                self.report.skip("fewer than two matching fine partitions")
                self._serial(op)
                return
        else:  # hybrid: corresponding coarse partitions
            count = (
                len(left.keys)
                if isinstance(left, PartitionHandoff)
                else len(left)
            )
            if count < 2:
                self.report.skip("single coarse partition")
                self._serial(op)
                return
            keys = list(range(count))

        fn = self.namespace[pair_name]
        ctx = self.ctx

        def bucket(side, key):
            return (
                side.bucket(key)
                if isinstance(side, PartitionHandoff)
                else side[key]
            )

        thunks = [
            (
                lambda key=key: fn(
                    ctx, bucket(left, key), bucket(right, key)
                )
            )
            for key in keys
        ]
        started = time.perf_counter()
        chunks, workers = self._run_thunks(
            thunks, label=f"join:o{op.op_id}"
        )
        out: list = []
        for chunk in chunks:
            out.extend(chunk)
        self.results[op.op_id] = out
        self.report.note(
            "join", started, time.perf_counter(), workers, len(thunks),
            EXECUTOR_THREAD,
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
        inputs = [self._input(input_id) for input_id in op.input_ops]
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
                tasks.append(CallTask(func=name, args=tuple(args)))
        else:  # hybrid team: one task per corresponding coarse partition
            if len(inputs[0]) < 2:
                self.report.skip("join team has a single coarse partition")
                self._serial(op)
                return
            tasks = [
                CallTask(
                    func=name,
                    args=tuple([parts[index]] for parts in inputs),
                )
                for index in range(len(inputs[0]))
            ]

        started = time.perf_counter()
        chunks, workers, backend = self._run_batch(
            tasks, label=f"join-team:o{op.op_id}"
        )
        out: list = []
        for chunk in chunks:
            out.extend(chunk)
        self.results[op.op_id] = out
        self.report.note(
            "join", started, time.perf_counter(), workers, len(tasks),
            backend,
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
                "(allow_float_reorder is off)"
            )
            self._serial(op)
            return
        rows = self._input(op.input_op)
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
        tasks = [
            CallTask(func=partial_name, args=(rows[lo:hi],))
            for lo, hi in bounds
        ]
        started = time.perf_counter()
        partials, workers, backend = self._run_batch(
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
            "aggregate", started, time.perf_counter(), workers,
            len(tasks), backend,
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
        rows = self._input(op.input_op)
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
        tasks = [
            CallTask(func=chunk_name, args=(rows[lo:hi],))
            for lo, hi in bounds
        ]
        started = time.perf_counter()
        partials, workers, backend = self._run_batch(
            tasks, label=f"restage:o{op.op_id}"
        )
        with maybe_span("merge", "merge", kind=op.prep.kind):
            self.results[op.op_id] = _merge_prep_partials(op.prep, partials)
        self.report.note(
            "stage", started, time.perf_counter(), workers, len(tasks),
            backend,
        )

    # -- final phase -------------------------------------------------------------------
    def _sort(self, op: Sort) -> None:
        rows = self._input(op.input_op)
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
        tasks = [
            CallTask(func=self.names[op.op_id], args=(rows[lo:hi],))
            for lo, hi in bounds
        ]
        started = time.perf_counter()
        runs, workers, backend = self._run_batch(
            tasks, label=f"sort:o{op.op_id}"
        )
        with maybe_span("merge", "merge", kind="ordered-runs"):
            self.results[op.op_id] = merge_ordered_runs(runs, op.keys)
        self.report.note(
            "final", started, time.perf_counter(), workers, len(tasks),
            backend,
        )


class PartitionHandoff:
    """Incrementally merged partition-staging output.

    Wraps the per-task partial partition sets of one partition-prep
    scan and merges them bucket by bucket on a background thread,
    publishing each bucket the moment its own merge completes — so a
    consuming hash/hybrid join launches ``*_pair`` tasks on finished
    buckets while sibling buckets still merge.  Key enumeration and
    the per-bucket merges replicate
    :func:`~repro.parallel.merge.merge_fine_partition_runs` /
    :func:`~repro.parallel.merge.merge_partition_runs` exactly
    (first-seen key order, adopt-the-first-run's-bucket-then-extend in
    run order), so every bucket — and the fully merged
    :meth:`result` — is byte-identical to the barrier merge.
    """

    def __init__(self, partials: list, fine: bool, pace=None):
        self.partials = partials
        self.fine = fine
        #: Test hook: called with each key right after its bucket
        #: publishes (lets tests pace the merge thread deterministically).
        self._pace = pace
        if fine:
            # Key enumeration is cheap (dict key walks, no row moves),
            # so consumers know the full first-seen key order up front.
            keys: list = []
            seen: set = set()
            for partial in partials:
                for key in partial:
                    if key not in seen:
                        seen.add(key)
                        keys.append(key)
            self.keys = keys
            self.key_set = seen
        else:
            count = len(partials[0]) if partials else 0
            self.keys = list(range(count))
            self.key_set = set(self.keys)
        # Snapshotted before any merging: the per-bucket merges extend
        # the first run's lists *in place*, so counting the partials
        # later would race the merge thread and double-count rows.
        if fine:
            self._total_rows = sum(
                len(rows)
                for partial in partials
                for rows in partial.values()
            )
        else:
            self._total_rows = sum(
                len(bucket) for partial in partials for bucket in partial
            )
        self._merged: dict = {}
        self._cond = threading.Condition()
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None
        self._done = False
        self._result = None

    def start(self) -> None:
        """Begin merging buckets on a background thread."""
        self._thread = threading.Thread(
            target=self._merge_all, name="repro-handoff", daemon=True
        )
        self._thread.start()

    def _merge_all(self) -> None:
        try:
            for key in self.keys:
                if self.fine:
                    bucket = None
                    for partial in self.partials:
                        rows = partial.get(key)
                        if rows is None:
                            continue
                        if bucket is None:
                            # Adopt the first run's bucket outright —
                            # exactly what merge_fine_partition_runs
                            # does (each partial is owned by one task).
                            bucket = rows
                        else:
                            bucket.extend(rows)
                else:
                    bucket = self.partials[0][key]
                    for partial in self.partials[1:]:
                        bucket.extend(partial[key])
                with self._cond:
                    self._merged[key] = bucket
                    self._cond.notify_all()
                if self._pace is not None:
                    self._pace(key)
        except BaseException as exc:  # noqa: BLE001 - rethrown to consumers
            with self._cond:
                self._error = exc
                self._cond.notify_all()
        else:
            with self._cond:
                self._done = True
                self._cond.notify_all()

    def bucket(self, key):
        """Block until ``key``'s merged bucket is published, return it."""
        with self._cond:
            while key not in self._merged and self._error is None:
                self._cond.wait()
            if key in self._merged:
                return self._merged[key]
            raise self._error

    def merged_count(self) -> int:
        """Buckets published so far (observability and tests)."""
        with self._cond:
            return len(self._merged)

    def result(self):
        """The complete merged staging output (blocks until done).

        For consumers that cannot use incremental buckets (a serial
        fallback, a restage, the plan root): identical to what the
        barrier merge would have produced.
        """
        if self._result is not None:
            return self._result
        if self._thread is not None:
            self._thread.join()
        elif not self._done:
            # Never started: merge inline on the consumer's thread.
            self._merge_all()
        with self._cond:
            if self._error is not None:
                raise self._error
        if self.fine:
            self._result = {key: self._merged[key] for key in self.keys}
        else:
            self._result = [self._merged[key] for key in self.keys]
        return self._result

    def total_rows(self) -> int:
        """Rows across all partial runs (snapshotted pre-merge)."""
        return self._total_rows


def _partition_rows(value) -> int:
    """Total rows of a (possibly still merging) partition staging."""
    if isinstance(value, PartitionHandoff):
        return value.total_rows()
    if isinstance(value, dict):
        return sum(len(rows) for rows in value.values())
    return sum(len(rows) for rows in value)


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
