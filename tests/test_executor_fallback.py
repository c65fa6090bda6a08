"""Fallback and failure paths of the process execution backend.

The process backend must never change results or hang: ineligible work
(O0 closure plans, tiny inputs, unpicklable payloads) silently rides
the thread backend or the serial entry point with a stats note, and a
dead or wedged worker surfaces a clean :class:`ExecutionError` while
the pool is replaced for subsequent queries.
"""

from __future__ import annotations

import random
import textwrap
import threading
import time

import pytest

from repro.api import Database
from repro.core.engine import HiqueEngine
from repro.errors import ExecutionError, ReproError
from repro.parallel.backend import (
    ProcessBackend,
    TaskNotPicklable,
    ThreadBackend,
)
from repro.parallel.proc import CallTask
from repro.parallel.stats import EXECUTOR_PROCESS, EXECUTOR_THREAD, ParallelConfig
from repro.storage import Catalog, Column, DOUBLE, INT, Schema, char
from repro.storage.table import table_from_rows
from tests.conftest import SERIAL

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


PROCESS = ParallelConfig(
    workers=2, morsel_pages=4, min_pages=2, min_rows=64,
    executor=EXECUTOR_PROCESS,
)


# -- eligibility fallbacks ---------------------------------------------------------------


def test_o0_plan_falls_back_to_thread_backend(fuzz_catalog):
    serial = HiqueEngine(fuzz_catalog, opt_level="O0", parallel=SERIAL)
    engine = HiqueEngine(fuzz_catalog, opt_level="O0", parallel=PROCESS)
    sql = "SELECT c, count(*) AS n, sum(a) AS s FROM t GROUP BY c"
    try:
        assert engine.execute(sql) == serial.execute(sql)
        stats = engine.last_exec_stats
        assert stats is not None and stats.parallel
        assert stats.backend == EXECUTOR_THREAD
        assert any("O0 closure plan" in note for note in stats.notes)
        assert all(
            phase.backend == EXECUTOR_THREAD for phase in stats.phases
        )
    finally:
        engine.close()
        serial.close()


def test_process_backend_runs_o2_out_of_process(fuzz_catalog):
    serial = HiqueEngine(fuzz_catalog, parallel=SERIAL)
    engine = HiqueEngine(fuzz_catalog, parallel=PROCESS)
    sql = "SELECT a, b, c FROM t WHERE a < 5000 ORDER BY c DESC, a"
    try:
        assert engine.execute(sql) == serial.execute(sql)
        stats = engine.last_exec_stats
        assert stats is not None and stats.parallel
        assert stats.backend == EXECUTOR_PROCESS
        assert any(
            phase.backend == EXECUTOR_PROCESS for phase in stats.phases
        )
        assert any("shipped" in note for note in stats.notes)
    finally:
        engine.close()
        serial.close()


def test_tiny_inputs_stay_serial_under_process_executor():
    catalog = Catalog()
    schema = Schema([Column("a", INT), Column("b", INT)])
    catalog.register(
        table_from_rows(
            "small", schema, [(i, i * 2) for i in range(50)],
            buffer=catalog.buffer,
        )
    )
    catalog.analyze()
    engine = HiqueEngine(catalog, parallel=PROCESS)
    try:
        rows = engine.execute("SELECT a, b FROM small WHERE a < 30")
        assert len(rows) == 30
        stats = engine.last_exec_stats
        assert stats is not None and not stats.parallel
        # Below min_pages: no task ever reached a worker process.
        assert stats.backend == EXECUTOR_THREAD
    finally:
        engine.close()


def test_unpicklable_params_fall_back_to_thread(fuzz_catalog):
    class Threshold:
        """Comparable against ints but deliberately unpicklable."""

        def __init__(self, value):
            self.value = value

        def __reduce__(self):
            raise TypeError("Threshold refuses to pickle")

        def __lt__(self, other):
            return self.value < other

        def __le__(self, other):
            return self.value <= other

        def __gt__(self, other):
            return self.value > other

        def __ge__(self, other):
            return self.value >= other

    engine = HiqueEngine(fuzz_catalog, parallel=PROCESS)
    try:
        prepared = engine.prepare(
            "SELECT a, c FROM t WHERE a < ?", name="fallback"
        )
        want = engine.execute_prepared(prepared, params=(4000,))
        got = engine.execute_prepared(prepared, params=(Threshold(4000),))
        assert got == want
        stats = engine.last_exec_stats
        assert stats is not None and stats.parallel
        assert stats.backend == EXECUTOR_THREAD
        assert any("unpicklable" in note for note in stats.notes)
    finally:
        engine.close()


# -- crash / timeout surfacing ------------------------------------------------------------


def _write_module(tmp_path, body: str) -> tuple[str, str]:
    path = tmp_path / "crash_module.py"
    path.write_text(
        textwrap.dedent(
            """
            HIQUE_QUERY = "crash"
            HIQUE_OPT_LEVEL = "O2"
            HIQUE_TRACED = False
            """
        )
        + textwrap.dedent(body),
        encoding="utf-8",
    )
    return "crash_module", str(path)


def test_worker_crash_surfaces_clean_error_and_pool_recovers(tmp_path):
    spec = _write_module(
        tmp_path,
        """
        import os

        def boom(ctx):
            os._exit(13)

        def fine(ctx, value):
            return value * 2
        """,
    )
    backend = ProcessBackend(workers=2)
    try:
        with pytest.raises(ExecutionError, match="worker process died"):
            backend.run_batch(spec, (), [CallTask(func="boom")])
        # The broken pool was retired; the next batch gets a fresh one.
        results, workers, _ = backend.run_batch(
            spec, (), [CallTask(func="fine", args=(21,))]
        )
        assert results == [42]
        assert workers == 1
    finally:
        backend.close()


def test_worker_timeout_surfaces_clean_error(tmp_path):
    spec = _write_module(
        tmp_path,
        """
        import time

        def sleepy(ctx):
            time.sleep(60)
        """,
    )
    backend = ProcessBackend(workers=1, task_timeout=0.5)
    try:
        with pytest.raises(ExecutionError, match="task_timeout"):
            backend.run_batch(spec, (), [CallTask(func="sleepy")])
    finally:
        backend.close()


def test_thread_backend_enforces_task_timeout():
    """Regression: ``task_timeout`` used to be silently ignored under
    ``executor="thread"`` — ``drain_futures`` awaited worker futures
    with no deadline while the process backend enforced one."""
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


def test_process_backend_timeout_spares_progressing_batches(tmp_path):
    """A pool that keeps completing results is healthy: per-result
    waits must restart their deadline on progress instead of killing
    workers that are merely busy with queued neighbours."""
    spec = _write_module(
        tmp_path,
        """
        import time

        def slow(ctx, value):
            time.sleep(0.1)
            return value
        """,
    )
    backend = ProcessBackend(workers=1, task_timeout=0.35)
    try:
        # 8 × 0.1s through one worker: total far exceeds the timeout,
        # but every individual wait observes completions.
        results, workers, _ = backend.run_batch(
            spec, (), [CallTask(func="slow", args=(i,)) for i in range(8)]
        )
        assert results == list(range(8))
        assert workers == 1
    finally:
        backend.close()


def test_thread_executor_timeout_surfaces_through_engine(fuzz_catalog):
    """End to end: a wedged generated task under ``executor="thread"``
    raises the same clean ExecutionError the process backend gives."""
    stall = threading.Event()
    engine = HiqueEngine(
        fuzz_catalog,
        parallel=ParallelConfig(
            workers=2, morsel_pages=4, min_pages=2, min_rows=64,
            executor=EXECUTOR_THREAD, task_timeout=0.3,
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


def test_worker_exception_propagates_not_swallowed(tmp_path):
    spec = _write_module(
        tmp_path,
        """
        def divide(ctx, denominator):
            return 1 / denominator
        """,
    )
    backend = ProcessBackend(workers=1)
    try:
        with pytest.raises(ZeroDivisionError):
            backend.run_batch(spec, (), [CallTask(func="divide", args=(0,))])
    finally:
        backend.close()


def test_retired_backend_refuses_new_pools(tmp_path):
    """A reconfigure-retired backend must not resurrect worker pools;
    it signals the thread-fallback path instead."""
    spec = _write_module(
        tmp_path,
        """
        def fine(ctx, value):
            return value
        """,
    )
    backend = ProcessBackend(workers=1)
    backend.close()
    with pytest.raises(TaskNotPicklable, match="retired"):
        backend.run_batch(spec, (), [CallTask(func="fine", args=(1,))])


def test_unpicklable_payload_raises_task_not_picklable(tmp_path):
    spec = _write_module(
        tmp_path,
        """
        def identity(ctx, value):
            return value
        """,
    )
    backend = ProcessBackend(workers=1)
    try:
        with pytest.raises(TaskNotPicklable):
            backend.run_batch(
                spec,
                (),
                [CallTask(func="identity", args=(lambda: None,))],
            )
    finally:
        backend.close()


# -- knob plumbing -------------------------------------------------------------------------


def test_database_executor_knob_and_env(monkeypatch, fuzz_catalog):
    with Database(catalog=fuzz_catalog, executor="process") as db:
        assert db.parallel_config.executor == EXECUTOR_PROCESS
        config = db.set_parallel(executor="thread")
        assert config.executor == EXECUTOR_THREAD
        with pytest.raises(ReproError):
            db.set_parallel(executor="gpu")
    with pytest.raises(ReproError):
        Database(catalog=fuzz_catalog, executor="gpu")
    monkeypatch.setenv("REPRO_EXECUTOR", "process")
    with Database(catalog=fuzz_catalog) as db:
        assert db.parallel_config.executor == EXECUTOR_PROCESS
    monkeypatch.setenv("REPRO_EXECUTOR", "")
    with Database(catalog=fuzz_catalog) as db:
        assert db.parallel_config.executor == EXECUTOR_THREAD


def test_service_stats_report_executor(fuzz_catalog):
    with Database(catalog=fuzz_catalog, executor="process") as db:
        db.execute("SELECT count(*) AS n FROM t")
        assert db.service.stats().executor == EXECUTOR_PROCESS


def test_config_rejects_unknown_executor():
    with pytest.raises(ValueError):
        ParallelConfig(executor="gpu")
    with pytest.raises(ValueError):
        ParallelConfig(task_timeout=0.0)
