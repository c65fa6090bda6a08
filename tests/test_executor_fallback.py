"""Failure paths of the thread task backend.

A scheduled run must never change results or hang: tiny inputs ride
the serial generated functions with a stats note, a task's own
exception propagates, and a wedged task surfaces a clean
:class:`ExecutionError` while the pool is replaced for subsequent
queries.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.core.engine import HiqueEngine
from repro.errors import ExecutionError
from repro.parallel.backend import ThreadBackend
from repro.parallel.stats import ParallelConfig
from repro.storage import Catalog, Column, DOUBLE, INT, Schema, char
from repro.storage.table import table_from_rows

#: These tests assert the scheduler's mechanics over small in-memory
#: tables, where production would decline to schedule at all.
pytestmark = pytest.mark.usefixtures("scheduled")


@pytest.fixture()
def fuzz_catalog() -> Catalog:
    rng = random.Random(5)
    catalog = Catalog()
    schema = Schema(
        [Column("a", INT), Column("b", DOUBLE), Column("c", char(6))]
    )
    rows = [
        (i, float(rng.randrange(1000)) / 4, f"s{i % 7}")
        for i in range(6_000)
    ]
    catalog.register(
        table_from_rows("t", schema, rows, buffer=catalog.buffer)
    )
    catalog.analyze()
    return catalog


SCHEDULED = ParallelConfig(
    workers=2, morsel_pages=4, min_pages=2, min_rows=64,
)


# -- eligibility fallbacks ---------------------------------------------------------------


def test_tiny_inputs_stay_serial_when_scheduled():
    catalog = Catalog()
    schema = Schema([Column("a", INT), Column("b", INT)])
    catalog.register(
        table_from_rows(
            "small", schema, [(i, i * 2) for i in range(50)],
            buffer=catalog.buffer,
        )
    )
    catalog.analyze()
    engine = HiqueEngine(catalog, parallel=SCHEDULED)
    try:
        rows = engine.execute("SELECT a, b FROM small WHERE a < 30")
        assert len(rows) == 30
        stats = engine.last_exec_stats
        assert stats is not None and stats.scheduled and not stats.parallel
        # Below min_pages: the scan ran its serial generated function.
        assert any("min_pages" in note for note in stats.notes)
    finally:
        engine.close()


def test_thread_backend_enforces_task_timeout():
    """Regression: ``task_timeout`` used to be silently ignored —
    ``drain_futures`` awaited worker futures with no deadline."""
    stall = threading.Event()
    backend = ThreadBackend(workers=2, task_timeout=0.3)
    try:
        started = time.perf_counter()
        with pytest.raises(ExecutionError, match="task_timeout"):
            backend.run_thunks([lambda: stall.wait(30)], workers=2)
        # The watchdog fired near the bound, not after the 30s sleep.
        assert time.perf_counter() - started < 5.0
        # The stalled pool was abandoned; the backend still serves new
        # batches on a fresh pool.
        results, workers = backend.run_thunks(
            [lambda: 21, lambda: 2], workers=2
        )
        assert results == [21, 2]
    finally:
        stall.set()
        backend.close()


def test_thread_backend_timeout_spares_slow_but_progressing_batches():
    """Many short tasks must not trip the watchdog just because the
    whole batch takes longer than ``task_timeout``."""
    backend = ThreadBackend(workers=2, task_timeout=0.25)
    try:
        thunks = [lambda: time.sleep(0.05) for _ in range(20)]
        results, workers = backend.run_thunks(thunks, workers=2)
        assert len(results) == 20 and workers == 2
    finally:
        backend.close()


def test_thread_backend_timeout_spares_batches_queued_behind_others():
    """A batch merely waiting for pool slots behind a concurrent slow
    batch has no running worker of its own — queue time must not count
    toward its stall deadline."""
    backend = ThreadBackend(workers=1, task_timeout=0.3)
    results: dict[str, object] = {}
    errors: list[BaseException] = []

    def run(name: str, thunks) -> None:
        try:
            results[name] = backend.run_thunks(thunks, workers=1)
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    # The single pool slot runs batch A (healthy but longer than the
    # timeout); batch B queues behind it the whole time.
    a = threading.Thread(
        target=run, args=("a", [lambda: time.sleep(0.12)] * 5)
    )
    b = threading.Thread(target=run, args=("b", [lambda: 7]))
    a.start()
    time.sleep(0.05)  # ensure A owns the slot before B submits
    b.start()
    a.join()
    b.join()
    backend.close()
    assert not errors, errors
    assert results["b"][0] == [7]


def test_thread_backend_timeout_poisons_rest_of_batch():
    """After a timeout abandons the pool, surviving claim workers must
    stop claiming — the batch's remaining tasks never execute against
    state the caller already unwound.  (Both workers wedge: with any
    healthy worker the stall watchdog by design waits for it to drain
    the rest of the batch first.)"""
    stall = threading.Event()
    executed: list[int] = []

    def make(index: int):
        def thunk():
            if index < 2:
                stall.wait(30)
            executed.append(index)
        return thunk

    backend = ThreadBackend(workers=2, task_timeout=0.3)
    try:
        with pytest.raises(ExecutionError, match="task_timeout"):
            backend.run_thunks([make(i) for i in range(40)], workers=2)
        stall.set()
        time.sleep(0.3)  # let the detached wedged tasks finish
        # Only the two wedged tasks ever ran: the poisoned dispatcher
        # kept their claim loops from touching the other 38.
        assert sorted(executed) == [0, 1], executed
    finally:
        stall.set()
        backend.close()


def test_thread_backend_timeout_fires_for_batch_queued_behind_wedge():
    """A batch queued behind *wedged* work (no completion anywhere on
    the backend) must time out like a wedged batch — not hang forever
    waiting for pool slots that will never free up."""
    stall = threading.Event()
    backend = ThreadBackend(workers=1, task_timeout=0.3)
    errors: list[BaseException] = []

    def run(thunks) -> None:
        try:
            backend.run_thunks(thunks, workers=1)
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    a = threading.Thread(target=run, args=([lambda: stall.wait(30)],))
    b = threading.Thread(target=run, args=([lambda: 7],))
    a.start()
    time.sleep(0.05)  # the wedged batch owns the only slot
    b.start()
    a.join(timeout=10)
    b.join(timeout=10)
    alive = a.is_alive() or b.is_alive()
    stall.set()
    backend.close()
    assert not alive, "a batch hung past its task_timeout"
    # Both batches failed with the library's error type: the wedged
    # one with the timeout, the queued one with timeout or abandonment.
    assert len(errors) == 2 and all(
        isinstance(exc, ExecutionError) for exc in errors
    ), errors


def test_thread_executor_timeout_surfaces_through_engine(fuzz_catalog):
    """End to end: a wedged generated task raises a clean
    ExecutionError through the engine."""
    stall = threading.Event()
    engine = HiqueEngine(
        fuzz_catalog,
        parallel=ParallelConfig(
            workers=2, morsel_pages=4, min_pages=2, min_rows=64,
            task_timeout=0.3,
        ),
    )
    try:
        prepared = engine.prepare(
            "SELECT a, c FROM t WHERE a < 4000", name="stalled"
        )
        scan_name = next(iter(prepared.generated.function_names.values()))
        real = prepared.compiled.namespace[scan_name]

        def wedged(ctx, _lo=0, _hi=None):
            if _lo > 0:  # first morsel proceeds; a later one wedges
                stall.wait(30)
            return real(ctx, _lo, _hi)

        prepared.compiled.namespace[scan_name] = wedged
        with pytest.raises(ExecutionError, match="task_timeout"):
            engine.execute_prepared(prepared)
    finally:
        stall.set()
        engine.close()


def test_worker_exception_propagates_not_swallowed():
    backend = ThreadBackend(workers=2)
    try:
        with pytest.raises(ZeroDivisionError):
            backend.run_thunks([lambda: 1, lambda: 1 / 0], workers=2)
    finally:
        backend.close()


def test_config_rejects_nonpositive_task_timeout():
    with pytest.raises(ValueError):
        ParallelConfig(task_timeout=0.0)
