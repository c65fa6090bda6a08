"""Dependency-driven (pipelined) cross-phase scheduling.

The pipelined scheduler must change *when* operators run, never *what*
they produce: every plan shape — staged joins, restages, multiway
teams, aggregation, final sorts — returns byte-identical rows under
barrier scheduling, pipelined scheduling, and the serial entry point.
These tests also pin the knob plumbing
(``Database(pipeline=)`` / ``set_parallel`` / shell ``.pipeline`` /
``REPRO_PIPELINE``), the overlap accounting in ``PhaseStats``, and
clean error propagation out of driver threads.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.api import Database
from repro.cli import Shell
from repro.core.engine import HiqueEngine
from repro.errors import ReproError
from repro.parallel.stats import (
    ParallelConfig,
    default_pipeline,
)
from repro.plan.optimizer import PlannerConfig
from repro.storage import Catalog, Column, DOUBLE, INT, Schema, char
from tests.conftest import SERIAL

#: These tests assert the scheduler's mechanics over small in-memory
#: tables, where production would decline to schedule at all.
pytestmark = pytest.mark.usefixtures("scheduled")

#: Thresholds low enough that small test tables genuinely fan out.
_PARALLEL = dict(workers=3, morsel_pages=1, min_pages=1, min_rows=8)


@pytest.fixture(scope="module")
def catalog() -> Catalog:
    rng = random.Random(31)
    catalog = Catalog()
    t = catalog.create_table(
        "t",
        Schema(
            [
                Column("x", INT),
                Column("y", INT),
                Column("v", DOUBLE),
                Column("c", char(6)),
            ]
        ),
    )
    t.load_rows(
        (
            rng.randrange(200),
            rng.randrange(150),
            float(rng.randrange(-2000, 2000)) / 8,
            f"s{rng.randrange(5)}",
        )
        for _ in range(1600)
    )
    u = catalog.create_table(
        "u", Schema([Column("x", INT), Column("w", INT)])
    )
    u.load_rows(
        (rng.randrange(200), rng.randrange(100)) for _ in range(500)
    )
    v = catalog.create_table(
        "v", Schema([Column("y", INT), Column("z", INT)])
    )
    v.load_rows(
        (rng.randrange(150), rng.randrange(100)) for _ in range(400)
    )
    catalog.analyze()
    return catalog


QUERIES = [
    # scan + filter + aggregation (fused partials)
    "SELECT c AS c, count(*) AS n, sum(x) AS s FROM t "
    "WHERE x < 30 GROUP BY c",
    # two-table staged join + ORDER BY
    "SELECT t.x AS x, u.w AS w FROM t, u WHERE t.x = u.x "
    "ORDER BY x DESC, w LIMIT 200",
    # three-table plan: join, restage of the intermediate, second join
    "SELECT t.x AS x, u.w AS w, v.z AS z FROM t, u, v "
    "WHERE t.x = u.x AND t.y = v.y ORDER BY x, w, z LIMIT 200",
    # aggregation over a join result
    "SELECT t.c AS c, count(*) AS n, min(u.w) AS lo FROM t, u "
    "WHERE t.x = u.x GROUP BY t.c ORDER BY c",
]


def test_pipelined_rows_identical_to_barrier_and_serial(catalog):
    serial = HiqueEngine(catalog, parallel=SERIAL)
    barrier = HiqueEngine(
        catalog, parallel=ParallelConfig(pipeline=False, **_PARALLEL)
    )
    pipelined = HiqueEngine(
        catalog, parallel=ParallelConfig(pipeline=True, **_PARALLEL)
    )
    try:
        for index, sql in enumerate(QUERIES):
            want = serial.execute(sql)
            assert barrier.execute(sql) == want, sql
            assert pipelined.execute(sql) == want, sql
            stats = pipelined.last_exec_stats
            assert stats is not None and stats.parallel, (sql, stats)
            if index == 0:
                # Scan fused with its aggregation: a single-node plan
                # has nothing to pipeline, and the stats say so.
                assert not stats.pipelined, (sql, stats)
            else:
                assert stats.pipelined, (sql, stats)
                assert "pipelined" in stats.describe()
    finally:
        serial.close()
        barrier.close()
        pipelined.close()


def test_pipelined_o0_plans_match_serial(catalog):
    serial = HiqueEngine(catalog, opt_level="O0", parallel=SERIAL)
    pipelined = HiqueEngine(
        catalog,
        opt_level="O0",
        parallel=ParallelConfig(pipeline=True, **_PARALLEL),
    )
    try:
        for sql in QUERIES:
            assert pipelined.execute(sql) == serial.execute(sql), sql
    finally:
        serial.close()
        pipelined.close()


def test_barrier_phases_report_no_overlap(catalog):
    engine = HiqueEngine(
        catalog, parallel=ParallelConfig(pipeline=False, **_PARALLEL)
    )
    try:
        engine.execute(QUERIES[2])
        stats = engine.last_exec_stats
        assert stats is not None and stats.parallel
        assert not stats.pipelined
        assert all(phase.overlap_seconds == 0.0 for phase in stats.phases)
    finally:
        engine.close()


def test_pipelined_independent_scans_overlap(catalog):
    """Two leaf scans share no dependency, so the pipelined run must
    actually overlap them — the stage phase reports overlapped time
    with high probability on a plan whose three scans dominate."""
    engine = HiqueEngine(
        catalog, parallel=ParallelConfig(pipeline=True, **_PARALLEL)
    )
    try:
        # A couple of attempts damp scheduler noise: overlap only needs
        # to be observed once to prove the phases genuinely interleave.
        for _ in range(5):
            engine.execute(QUERIES[2])
            stats = engine.last_exec_stats
            assert stats is not None and stats.parallel
            if any(phase.overlap_seconds > 0 for phase in stats.phases):
                break
        else:
            pytest.fail(f"no overlap ever observed: {stats.phases}")
    finally:
        engine.close()


def test_pipelined_task_errors_propagate_cleanly(catalog):
    engine = HiqueEngine(
        catalog, parallel=ParallelConfig(pipeline=True, **_PARALLEL)
    )
    try:
        # A merge join fans out pair tasks; the default build/probe hash
        # join would probe serially.
        prepared = engine.prepare(
            QUERIES[1], name="boom",
            planner_config=PlannerConfig(force_join="merge"),
        )
        join_name = next(
            name
            for name in prepared.generated.function_names.values()
            if name.startswith("join")
        )

        def boom(ctx, left, right):
            raise RuntimeError("pair task died")

        # Link the scheduler's entry points first, so the first
        # scheduled run does not overwrite the patch.
        prepared.compiled.link_scheduled()
        prepared.compiled.namespace[join_name + "_pair"] = boom
        with pytest.raises(RuntimeError, match="pair task died"):
            engine.execute_prepared(prepared)
        # The engine (and its pools) survive for the next statement.
        engine.clear_cache()
        assert engine.execute(QUERIES[0])
    finally:
        engine.close()


# -- knob plumbing -------------------------------------------------------------------


def test_default_pipeline_env(monkeypatch):
    monkeypatch.delenv("REPRO_PIPELINE", raising=False)
    assert default_pipeline() is False
    assert ParallelConfig().pipeline is False
    monkeypatch.setenv("REPRO_PIPELINE", "1")
    assert default_pipeline() is True
    assert ParallelConfig().pipeline is True
    monkeypatch.setenv("REPRO_PIPELINE", "off")
    assert default_pipeline() is False
    monkeypatch.setenv("REPRO_PIPELINE", "sideways")
    with pytest.raises(ValueError):
        default_pipeline()


def test_database_pipeline_knob(catalog, monkeypatch):
    monkeypatch.delenv("REPRO_PIPELINE", raising=False)
    with Database(catalog=catalog) as db:
        assert db.parallel_config.pipeline is False
        config = db.set_parallel(pipeline=True)
        assert config.pipeline is True
        # Other knobs survive a pipeline toggle and vice versa.
        config = db.set_parallel(workers=2)
        assert config.pipeline is True and config.workers == 2
        config = db.set_parallel(pipeline=False)
        assert config.pipeline is False
    with Database(catalog=catalog, pipeline=True) as db:
        assert db.parallel_config.pipeline is True
        rows = db.execute(
            "SELECT x AS x, count(*) AS n FROM t GROUP BY x ORDER BY x"
        )
        assert rows
    monkeypatch.setenv("REPRO_PIPELINE", "1")
    with Database(catalog=catalog) as db:
        assert db.parallel_config.pipeline is True
    with pytest.raises(ReproError):
        Database(catalog=catalog, workers=0, pipeline=True)


def test_shell_pipeline_command(monkeypatch):
    monkeypatch.delenv("REPRO_PIPELINE", raising=False)
    out = io.StringIO()
    shell = Shell(stdout=out)
    try:
        shell.handle(".pipeline")
        shell.handle(".pipeline on")
        assert shell.db.parallel_config.pipeline is True
        shell.handle(".parallel")
        shell.handle(".pipeline off")
        assert shell.db.parallel_config.pipeline is False
        shell.handle(".pipeline sideways")
        text = out.getvalue()
        assert "barrier" in text
        assert "pipelined scheduling on" in text
        assert "usage: .pipeline" in text
    finally:
        shell.db.close()
