"""Execution configuration and per-query statistics.

:class:`ParallelConfig` holds what an execution reads;
:class:`ExecutionStats` (with one :class:`PhaseStats` per phase) says
how one execution ran: recycled or run, traced or not, and which path
each scan took.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class ParallelConfig:
    """What an execution reads.

    ``min_pages``: tables below this many pages skip the intermediate
    cache — their stagings are neither looked up nor banked, and a
    plan that scans only such tables banks no answer.
    """

    min_pages: int = 16


@dataclass
class PhaseStats:
    """Wall time of one phase (stage, join, aggregate, final) of a run.

    ``tasks`` is always 0: every phase runs on the calling thread.  It
    stays because the end-to-end benchmark sums it.
    """

    name: str
    seconds: float = 0.0
    tasks: int = 0

    def describe(self) -> str:
        return f"{self.name} {self.seconds * 1000:.1f} ms"


@dataclass
class ExecutionStats:
    """How one query execution actually ran.

    Surfaced through ``HiqueEngine.last_exec_stats`` and the shell's
    ``.parallel`` command.  ``parallel`` is always False and ``morsels``
    always 0 — one thread runs every plan; both stay because the
    end-to-end benchmark reads them.
    """

    parallel: bool = False
    morsels: int = 0
    rows: int = 0
    elapsed_seconds: float = 0.0
    #: Why the intermediate cache did not take part as usual: the
    #: answer was recycled (its versions), or the probe traced the run
    #: ("" otherwise).
    reason: str = ""
    #: Per-phase timings, in stage → join → aggregate → final order
    #: (empty when the answer was recycled).
    phases: list[PhaseStats] = field(default_factory=list)
    #: Per-scan remarks: index probes, cached / extended / fused
    #: stagings, a re-plan after map-directory overflow.
    notes: list[str] = field(default_factory=list)
    #: The answer lookup: "hit" (rows recycled, nothing ran), "stale"
    #: (a banked answer went missing), "first" (none banked yet), or ""
    #: when the intermediate cache was not asked.
    recycled: str = ""

    def describe(self) -> str:
        base = f"serial ({self.reason})" if self.reason else "serial"
        if self.phases:
            base += "; " + ", ".join(
                phase.describe() for phase in self.phases
            )
        return base


class RecycledStats(ExecutionStats):
    """How a recycled answer ran: nothing ran, so the stats are its row
    count, its time and ``reason``, the versions it was recycled under.
    ``reason`` is formatted when first read, not on every hit.
    """

    def __init__(
        self, rows: int, elapsed_seconds: float, note: Callable[[], str]
    ):
        super().__init__(
            rows=rows, elapsed_seconds=elapsed_seconds, recycled="hit"
        )
        self._note = note
        self._reason = None

    @property
    def reason(self) -> str:
        if self._reason is None:
            self._reason = self._note()
        return self._reason

    @reason.setter
    def reason(self, value: str) -> None:
        self._reason = value
