"""Parallel-execution configuration and per-query statistics.

:class:`ParallelConfig` holds the scheduler's knobs;
:class:`ExecutionStats` (with one :class:`PhaseStats` per phase) says
how one execution ran: serial walk or scheduled, on how many threads,
and why any part stayed serial.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.parallel.morsel import DEFAULT_MORSEL_PAGES

#: Environment default for cross-phase pipelined scheduling.
PIPELINE_ENV = "REPRO_PIPELINE"


def default_pipeline() -> bool:
    """Whether pipelined (dependency-driven) scheduling is on by default.

    Reads ``REPRO_PIPELINE`` so a deployment can flip every engine onto
    the pipelined scheduler without touching call sites; unset or empty
    means barrier scheduling.
    """
    configured = os.environ.get(PIPELINE_ENV, "").strip().lower()
    if not configured:
        return False
    if configured in ("1", "true", "on", "yes"):
        return True
    if configured in ("0", "false", "off", "no"):
        return False
    raise ValueError(
        f"{PIPELINE_ENV} must be a boolean flag (1/0/on/off), "
        f"got {configured!r}"
    )


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs for morsel-driven intra-query parallelism.

    ``workers`` sizes the worker pool shared by every parallel phase
    of a *scheduled* run — whether a run is scheduled at all is decided
    from the data (see :meth:`ParallelExecutor.waiting_table`), not
    here, and ``workers=1`` pins every run to the serial walk;
    ``min_pages`` keeps tiny table scans serial (and out of the
    intermediate cache) and ``min_rows`` keeps small intermediates
    (join inputs, aggregation inputs, final sorts) serial, where
    thread fan-out costs more than it saves.  Scheduled tasks run on
    an in-process thread pool, whose workers overlap page waits under
    the GIL.
    """

    workers: int = 4
    morsel_pages: int = DEFAULT_MORSEL_PAGES
    #: Dependency-driven cross-phase scheduling: operators launch the
    #: moment their inputs are complete instead of at phase barriers,
    #: so independent scans run concurrently and a CPU-bound join can
    #: overlap a latency-bound scan.  Results stay byte-identical —
    #: only wall-clock scheduling changes.  Defaults to the
    #: ``REPRO_PIPELINE`` environment flag, else off.
    pipeline: bool = field(default_factory=default_pipeline)
    #: Upper bound, in seconds, on waiting for a task result while the
    #: backend makes no progress (time queued behind other healthy
    #: batches on the shared pool does not count).  ``None`` waits
    #: forever; a bound turns a hung or wedged worker into a clean
    #: ``ExecutionError`` instead of a stalled query.  Thread workers
    #: cannot be killed, so the backend abandons the stalled pool (the
    #: wedged task keeps running detached, the rest of its batch is
    #: poisoned) and later runs get a fresh one.
    task_timeout: float | None = None
    #: Tables below this many pages are scanned serially, and their
    #: stagings are neither looked up nor banked.
    min_pages: int = 16
    #: Materialized operator inputs below this many rows (summed over
    #: both join sides) run the operator's serial generated function.
    min_rows: int = 2048
    #: Merging per-morsel partial sums reassociates floating-point
    #: addition, which can change DOUBLE sum/avg results in the last
    #: ulp relative to a serial scan.  Off by default so parallel
    #: execution is bit-identical to serial; switch on to parallelize
    #: float aggregation too (every other aggregate is exact and always
    #: eligible — staging, joins and sorts never reassociate floats, so
    #: they stay parallel and exact regardless of this knob).
    allow_float_reorder: bool = False

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.morsel_pages <= 0:
            raise ValueError("morsel_pages must be positive")
        if self.min_rows <= 0:
            raise ValueError("min_rows must be positive")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")


@dataclass
class PhaseStats:
    """Wall time and fan-out of one phase of a scheduled execution.

    ``workers == 1`` means the phase's operators ran their serial
    generated functions (below thresholds, or serial by design like a
    final LIMIT); ``tasks`` counts the units of work the phase
    dispatched (morsels, partition pairs, row chunks).
    ``overlap_seconds`` is how much of this
    phase's wall time ran concurrently with other operator nodes —
    another phase's, or a sibling of the same phase (two table scans
    staging side by side) — nonzero only under the pipelined
    scheduler, where e.g. independent scans stage together and a join
    can run while a later input is still staging; ``Σ seconds −
    overlap`` therefore approximates the critical path.
    """

    name: str
    seconds: float = 0.0
    workers: int = 1
    tasks: int = 0
    #: Seconds of this phase's wall time spent overlapped with other
    #: phases (pipelined scheduling only; 0.0 under phase barriers).
    overlap_seconds: float = 0.0

    def describe(self) -> str:
        base = f"{self.name} {self.seconds * 1000:.1f} ms/{self.workers}w"
        if self.overlap_seconds > 0:
            base += f" ({self.overlap_seconds * 1000:.1f} overlapped)"
        return base


@dataclass
class ExecutionStats:
    """How one query execution actually ran.

    Surfaced through ``HiqueEngine.last_exec_stats`` and the shell's
    timing line, so operators can see whether a statement went
    parallel, how each phase (stage → join → aggregate → final) was
    divided, and why any part stayed serial.
    """

    parallel: bool = False
    #: Whether the phase scheduler ran at all.  False means the plan's
    #: serial generated functions ran in plan order on the calling
    #: thread (``reason`` says why: nothing could wait, one worker, …);
    #: a scheduled run can still end up ``parallel=False`` when every
    #: operator stayed below its fan-out thresholds.
    scheduled: bool = False
    #: True when the dependency-driven (pipelined) scheduler ran this
    #: query, i.e. operators launched as their inputs completed rather
    #: than at phase barriers.
    pipelined: bool = False
    #: Workers that actually ran (≤ configured when tasks are few).
    workers: int = 1
    morsels: int = 0
    pages: int = 0
    rows: int = 0
    elapsed_seconds: float = 0.0
    #: Why execution stayed serial ("" when it went parallel).
    reason: str = ""
    #: Per-phase timing/fan-out breakdown, in stage → join →
    #: aggregate → final order (empty when the scheduler never ran).
    phases: list[PhaseStats] = field(default_factory=list)
    #: Phase-level serial decisions, kept even when the query as a
    #: whole went parallel (e.g. a float-gated aggregation).
    notes: list[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.parallel:
            base = f"parallel: {self.workers} workers"
            if self.pipelined:
                base += " (pipelined)"
            if self.morsels:
                base += f", {self.morsels} morsels over {self.pages} pages"
            if self.phases:
                base += "; " + ", ".join(
                    phase.describe() for phase in self.phases
                )
            return base
        return f"serial ({self.reason})" if self.reason else "serial"
