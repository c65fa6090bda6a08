"""Execution of prepared queries: recall, ``run_query``, bank.

HIQUE's generated program is single-threaded (paper §IV), and so is
every execution here.  :meth:`ParallelExecutor.run` looks the
statement's answer up in the intermediate cache
(:func:`~repro.parallel.stage.recall`); on a miss it calls the plan's
generated composing function, ``run_query(ctx, acc)``, on the calling
thread.  Its access object ``acc``
(:class:`~repro.parallel.stage.StageAccess`) serves scans from the
index probe or a cached staging where one answers and times each
phase, and the rows are banked for the next identical statement.  A
run the memory-hierarchy probe traces calls the same ``run_query``
with no cache, so that every access it records is the plan's own.

Overlap with page waits on cold disk-backed tables comes from the
buffer pool's sequential read-ahead
(:class:`~repro.storage.buffer.BufferManager`), not from threads
here.  The class keeps its name and its ``(rows, ExecutionStats)``
contract because callers and the end-to-end benchmark read them.
"""

from __future__ import annotations

import time

from repro.core.executor import build_context
from repro.errors import ExecutionError
from repro.memsim.probe import NULL_PROBE, NullProbe
from repro.obs import current_span
from repro.parallel.stage import (
    SpannedAccess,
    StageAccess,
    recall,
    spanned_query,
)
from repro.parallel.stats import (
    ExecutionStats,
    ParallelConfig,
    RecycledStats,
)

#: Why a traced run asks no cache.
_TRACED = "traced execution (the probe records every access)"


class ParallelExecutor:
    """Runs prepared queries: a recycled answer, else ``run_query``.

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

        Returns ``(rows, stats)``; a recycled answer's rows are the
        ones ``run_query`` would return, since no table it read has
        been written since they were computed.
        """
        started = time.perf_counter()
        compiled = prepared.compiled
        params = tuple(params)
        min_pages = self.config.min_pages
        if compiled.traced and not probe.enabled:
            # Traced code dereferences the probe's internals.
            raise ExecutionError("traced query executed without a probe")
        # A traced run records every access of its own: nothing recycled.
        cache = None if probe.enabled else self.intermediates
        answer = recall(prepared, params, cache, min_pages)
        if answer.rows is not None:
            return answer.rows, RecycledStats(
                len(answer.rows), time.perf_counter() - started, answer.note
            )
        ctx = build_context(
            prepared.plan, probe=probe, opt_level=compiled.opt_level,
            params=params,
        )
        if current_span() is None:
            run_query = compiled.namespace["run_query"]
            access = StageAccess(prepared, ctx, cache, min_pages, answer.stale)
        else:
            run_query = spanned_query(prepared)
            access = SpannedAccess(
                prepared, ctx, cache, min_pages, answer.stale
            )
        rows = run_query(ctx, access)
        answer.bank(rows)
        return rows, ExecutionStats(
            rows=len(rows),
            elapsed_seconds=time.perf_counter() - started,
            reason=_TRACED if probe.enabled else "",
            phases=access.phases(),
            notes=access.notes,
            recycled=answer.recycled,
        )
