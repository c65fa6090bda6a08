"""The task backend: where a scheduled query's parallel tasks run.

The scheduler (:mod:`repro.parallel.executor`) turns each node's
units of work — page-range morsels, join pairs, aggregate row chunks,
restage chunks and sort runs — into zero-argument thunks over the
generated entry points and hands the batch to a :class:`ThreadBackend`:
an in-process ``ThreadPoolExecutor`` whose workers claim task indices
from a :class:`~repro.parallel.morsel.TaskDispatcher` and run the
generated functions directly against the live context (real tables,
zero copying).  Under CPython's GIL this wins when tasks block on page
reads, which is why a run is scheduled only when some scanned page can
wait.

Results come back **in task order**, which is what keeps every
downstream merge order-preserving and parallel rows byte-identical to
serial rows.  The first task exception is re-raised after the batch
drains.  An expired ``task_timeout`` — a **stall** deadline: time
queued behind a concurrent batch's healthy work doesn't count, only a
wait with zero backend progress does — abandons the (unkillable) pool,
poisons the batch's task queue and surfaces as a clean
:class:`~repro.errors.WatchdogTimeout` instead of a hang.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import (
    CancelledError as FutureCancelled,
    ThreadPoolExecutor,
)

from repro.errors import ExecutionError, WatchdogTimeout
from repro.obs import current_span
from repro.parallel.morsel import AffinityDispatcher, TaskDispatcher


class PoolAbandoned(ExecutionError):
    """Collateral failure: another batch's timeout abandoned the pool.

    Distinct from the wedged batch's own timeout error so callers
    collecting errors from concurrent batches (the scheduler's node
    drivers) can prefer the root cause over this secondary casualty.
    """


#: Pool headroom multiplier: up to this many operator nodes' batches
#: can hold their full worker fan-out simultaneously before queuing
#: (deeper plans still complete — extra batches wait for free slots).
PIPELINE_BATCHES = 4


class ThreadBackend:
    """In-process worker pool running generated code over shared state.

    Each :meth:`run_thunks` batch fans out to at most ``workers`` claim
    threads, but the pool holds ``workers × PIPELINE_BATCHES`` slots so
    batches of *different* operator nodes (a latency-bound scan and a
    CPU-bound join, say) run side by side instead of queuing behind one
    another.  The pool is created on first use, so idle slots cost
    nothing.
    """

    name = "thread"

    def __init__(
        self,
        workers: int,
        task_timeout: float | None = None,
        registry=None,
    ):
        self.workers = workers
        self.task_timeout = task_timeout
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry` that
        #: receives structured watchdog events.
        self.registry = registry
        self._slots = workers * PIPELINE_BATCHES
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        #: Tasks completed across every batch on this backend, for the
        #: stall watchdog: a batch waiting (running *or* queued) while
        #: any batch completes tasks is behind a healthy pool; only a
        #: backend-wide silence of ``task_timeout`` seconds is a stall.
        self._completed = 0
        self._completed_lock = threading.Lock()

    def submit(self, fn, count: int) -> list:
        """Create the pool if needed and submit ``count`` callables.

        Pool creation and submission share one critical section with
        :meth:`close`, so a task is never submitted to a pool that has
        been retired.
        """
        return self.submit_each([fn] * count)

    def submit_each(self, fns: list) -> list:
        """Like :meth:`submit` for a list of distinct callables.

        Used by affinity-aware batches, whose claim loops are
        slot-specific (worker ``k`` prefers partition ``k``'s queue).
        """
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._slots,
                    thread_name_prefix="repro-morsel",
                )
            return [self._pool.submit(fn) for fn in fns]

    def drain_futures(
        self,
        futures: list,
        collect=None,
        progress=None,
        label: str | None = None,
        in_flight: set | None = None,
    ) -> None:
        """Await every worker future, then re-raise the first error.

        Draining all futures before raising keeps no worker running
        against state the caller is about to unwind; ``collect``
        receives each successful result in submission order.

        With a ``task_timeout`` configured, ``progress=True`` arms a
        stall watchdog: whenever no task completes *anywhere on this
        backend* for ``task_timeout`` seconds while this batch still
        has pending futures, the wait aborts with a clean
        :class:`~repro.errors.ExecutionError`.  Time
        spent queued behind other batches' healthy work does not count
        (their completions keep resetting the deadline), but a batch
        queued behind *wedged* work times out like a wedged batch —
        it would otherwise hang forever.  Thread workers cannot be
        killed, so the stalled pool is abandoned (the wedged task
        keeps running detached) and later runs get a fresh pool.
        """
        if self.task_timeout is not None and progress:
            self._drain_with_deadline(futures, label, in_flight)
        error: BaseException | None = None
        for future in futures:
            try:
                result = future.result()
            except FutureCancelled:
                # A pool teardown cancelled our queued workers before
                # they started: surface the library's error type, not
                # a bare CancelledError.
                if error is None:
                    error = PoolAbandoned(
                        "the shared worker pool was torn down (a task "
                        "timeout elsewhere, or a shutdown) before this "
                        "batch completed; the next parallel execution "
                        "gets a fresh pool"
                    )
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None:
                    error = exc
            else:
                if collect is not None:
                    collect(result)
        if error is not None:
            raise error

    def _drain_with_deadline(
        self,
        futures: list,
        label: str | None = None,
        in_flight: set | None = None,
    ) -> None:
        """Wait for all futures, aborting on a ``task_timeout`` stall."""
        from concurrent.futures import wait as wait_futures

        timeout = self.task_timeout
        poll = min(max(timeout / 4, 0.01), 0.25)
        started = time.monotonic()
        pending = {f for f in futures if not f.done()}
        last_count = self._completed_count()
        last_change = time.monotonic()
        while pending:
            done, pending = wait_futures(pending, timeout=poll)
            now = time.monotonic()
            count = self._completed_count()
            if done or count != last_count:
                # This batch's claim workers returned, or some batch
                # somewhere completed a task: the backend is healthy.
                last_count, last_change = count, now
            elif now - last_change > timeout:
                for future in pending:
                    future.cancel()
                self._abandon_pool()
                self._record_abandonment(
                    label, now - started, in_flight
                )
                raise self._timeout_error()

    def _record_abandonment(
        self,
        label: str | None,
        elapsed: float,
        in_flight: set | None,
    ) -> None:
        """Leave a structured trail when the watchdog abandons the pool.

        An ``ExecutionError`` alone tells the caller *that* a morsel
        wedged; the metric event (and, when tracing, an instant span)
        records *which* node and tasks, so the hang is diagnosable
        after the fact.
        """
        tasks = sorted(in_flight) if in_flight else []
        if self.registry is not None:
            self.registry.counter(
                "repro_watchdog_abandonments_total", backend=self.name
            ).inc()
            self.registry.record_event(
                "watchdog_abandonment",
                backend=self.name,
                node=label or "",
                elapsed_seconds=elapsed,
                task_timeout=self.task_timeout,
                wedged_tasks=tasks,
            )
        span = current_span()
        if span is not None:
            now = time.perf_counter()
            span.child(
                "watchdog_abandonment",
                "watchdog",
                start=now,
                end=now,
                node=label or "",
                elapsed_seconds=elapsed,
                wedged_tasks=str(tasks),
            )

    def _completed_count(self) -> int:
        with self._completed_lock:
            return self._completed

    def _task_done(self) -> None:
        with self._completed_lock:
            self._completed += 1

    def _timeout_error(self) -> WatchdogTimeout:
        return WatchdogTimeout(
            f"parallel task exceeded task_timeout={self.task_timeout}s "
            f"on the thread backend; worker threads cannot be killed, "
            f"so the stalled pool was abandoned and the next parallel "
            f"execution gets a fresh one"
        )

    def _abandon_pool(self) -> None:
        """Drop the stalled pool without waiting for its wedged task.

        No ``cancel_futures`` here: the timed-out batch already
        cancelled its own queued workers and poisons its dispatcher,
        while *other* batches sharing the pool are healthy — their
        queued work keeps draining on the old pool's surviving threads
        instead of being collaterally failed.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def run_thunks(
        self,
        thunks: list,
        workers: int,
        label: str | None = None,
        affinity: list | None = None,
    ) -> tuple[list, int]:
        """Run zero-arg callables on the pool; results in task order.

        Workers claim indices from a :class:`TaskDispatcher`, so a slow
        task never stalls the queue behind it.  ``label`` names the
        scheduling node in watchdog diagnostics.

        ``affinity`` (one partition id per thunk) switches claiming to
        an :class:`AffinityDispatcher`: worker ``k`` sticks to
        partition ``k``'s tasks and steals from the fullest other
        queue when its own runs dry.  Results are still keyed by task
        index, so claim order never affects output order.
        """
        out: list = [None] * len(thunks)
        workers = min(workers, len(thunks))
        if affinity is not None and workers > 1:
            dispatcher = AffinityDispatcher(
                len(thunks), affinity, workers
            )
        else:
            dispatcher = TaskDispatcher(len(thunks))
        # Claimed-but-unfinished indices; set add/discard are GIL-atomic
        # so the watchdog can snapshot wedged tasks without a lock.
        in_flight: set[int] = set()

        def drain(slot: int) -> None:
            while True:
                index = dispatcher.next(slot)
                if index is None:
                    return
                in_flight.add(index)
                out[index] = thunks[index]()
                in_flight.discard(index)
                self._task_done()

        try:
            self.drain_futures(
                self.submit_each(
                    [
                        (lambda slot=slot: drain(slot))
                        for slot in range(workers)
                    ]
                ),
                progress=True,
                label=label,
                in_flight=in_flight,
            )
            if isinstance(dispatcher, AffinityDispatcher):
                span = current_span()
                if span is not None:
                    span.set(affinity_steals=dispatcher.steals)
        except BaseException:
            # Poison the queue so surviving claim workers stop after
            # their current thunk instead of executing the rest of a
            # batch the caller is about to unwind.  (After a normal
            # task error the queue is already drained — the other
            # claim loops ran every remaining task first — so this
            # only bites on the timeout/abandonment paths.)
            dispatcher.cancel()
            raise
        return out, workers

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


__all__ = [
    "PoolAbandoned",
    "ThreadBackend",
]
