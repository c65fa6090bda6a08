"""Execution of prepared queries: recall, the serial walk, bank.

HIQUE's generated program is single-threaded (paper §IV), and so is
every execution here.  :meth:`ParallelExecutor.run` looks the
statement's answer up in the intermediate cache
(:func:`~repro.parallel.stage.recall`); on a miss
:func:`~repro.parallel.stage.serial_walk` runs the plan's generated
functions in plan order on the calling thread, serving scans from the
index probe or a cached staging where one answers, and the rows are
banked for the next identical statement.  Traced runs skip all of it
and call the composed ``run_query`` entry point.

Overlap with page waits on cold disk-backed tables comes from the
buffer pool's sequential read-ahead
(:class:`~repro.storage.buffer.BufferManager`), not from threads
here.  The class keeps its name and its ``(rows, ExecutionStats)``
contract because callers and the end-to-end benchmark read them.
"""

from __future__ import annotations

import time

from repro.core.executor import run_compiled
from repro.memsim.probe import NULL_PROBE, NullProbe
from repro.parallel.stage import recall, serial_walk
from repro.parallel.stats import ExecutionStats, ParallelConfig


class ParallelExecutor:
    """Runs prepared queries: a recycled answer, else the serial walk.

    One instance per engine; stateless apart from its configuration and
    the wired intermediate cache, so concurrent sessions share it.
    """

    def __init__(self, config: ParallelConfig | None = None):
        self.config = config if config is not None else ParallelConfig()
        #: Optional :class:`~repro.parallel.intermediates.IntermediateCache`
        #: wired by the embedding database; when set, answers and staged
        #: scan outputs are reused across executions keyed on the
        #: scanned tables' version epochs (see
        #: :func:`~repro.parallel.stage.recall` and
        #: :class:`~repro.parallel.stage.StageAccess`).
        self.intermediates = None

    def reconfigure(self, config: ParallelConfig) -> None:
        """Swap the configuration; in-flight runs keep the one they
        started with."""
        self.config = config

    def run(
        self,
        prepared,
        params: tuple = (),
        probe: NullProbe = NULL_PROBE,
    ) -> tuple[list[tuple], ExecutionStats]:
        """Execute a :class:`~repro.core.engine.PreparedQuery`.

        Returns ``(rows, stats)``; rows are identical to what the
        composed entry point produces for the same inputs — a recycled
        answer too, since no table it read has been written since it
        was computed.
        """
        started = time.perf_counter()
        reason = self._ineligible(prepared, probe)
        if reason:
            rows = run_compiled(
                prepared.compiled, prepared.plan, probe=probe, params=params
            )
            return rows, ExecutionStats(
                rows=len(rows),
                elapsed_seconds=time.perf_counter() - started,
                reason=reason,
            )
        min_pages = self.config.min_pages
        params = tuple(params)
        answer = recall(prepared, params, self.intermediates, min_pages)
        if answer.rows is not None:
            return answer.rows, ExecutionStats(
                rows=len(answer.rows),
                elapsed_seconds=time.perf_counter() - started,
                reason=answer.note(),
                recycled="hit",
            )
        rows, phases, notes = serial_walk(
            prepared, params, self.intermediates, min_pages, answer.stale
        )
        answer.bank(rows)
        return rows, ExecutionStats(
            rows=len(rows),
            elapsed_seconds=time.perf_counter() - started,
            phases=phases,
            notes=notes,
            recycled=answer.recycled,
        )

    @staticmethod
    def _ineligible(prepared, probe: NullProbe) -> str:
        """A reason to run the bare composed entry point, or ""."""
        if probe.enabled:
            return "traced execution (the probe records every access)"
        if prepared.compiled.traced:
            # A traced module dereferences ctx.probe internals; without
            # a probe the serial path raises the proper ExecutionError.
            return "traced module (runs on the composed entry point)"
        return ""
