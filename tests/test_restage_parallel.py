"""Parallel re-staging of large intermediates.

``Restage`` was the last serial staging operator: a join result that
must be re-sorted or re-partitioned for its next consumer ran the
serial generated function no matter how large it was.  It now runs the
generated ``*_chunk`` entry point per row chunk, reassembled by the
order-preserving merge finishers — these tests pin byte-identity for
every restage prep (sort, coarse/fine partition, partition-sort)
across all six engine configurations, DOUBLE restage keys (sorting
never reassociates floats), the large-intermediate acceptance
criterion (no serial-restage stats note), and crash/fallback behaviour
when a restage chunk task dies mid-run.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Database, ENGINE_KINDS
from repro.core.engine import HiqueEngine
from repro.parallel.stats import ParallelConfig
from repro.plan.descriptors import Restage
from repro.plan.optimizer import PlannerConfig
from repro.plan.reference import evaluate as reference_evaluate
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage import Catalog, Column, DOUBLE, INT, Schema, char
from tests.conftest import FANOUT, SERIAL

#: These tests assert the scheduler's mechanics over small in-memory
#: tables, where production would decline to schedule at all.
pytestmark = pytest.mark.usefixtures("scheduled")

#: The staged joins these tests were written for: the default
#: build/probe hash join probes its larger input unprepared, so SQL's
#: intermediate (the larger side) would need no restage.
MERGE = PlannerConfig(force_join="merge")

#: Three tables joined on two different keys: under MERGE the optimizer
#: must join two of them first and re-stage the intermediate for the
#: second join.
SQL = (
    "SELECT a.x AS x, b.w AS w, c.z AS z FROM a, b, c "
    "WHERE a.x = b.x AND a.y = c.y ORDER BY x, w, z LIMIT 300"
)
#: Aggregation whose hybrid algorithm partition-sorts the join result.
SQL_AGG = (
    "SELECT a.x AS x, count(*) AS n, min(b.w) AS lo FROM a, b "
    "WHERE a.x = b.x GROUP BY a.x ORDER BY x"
)
#: The second join key is DOUBLE, so the restage sorts/partitions on a
#: DOUBLE column — exact, since sorting reassociates nothing.
SQL_DOUBLE = (
    "SELECT a.x AS x, c2.z AS z FROM a, b, c2 "
    "WHERE a.x = b.x AND a.d = c2.d ORDER BY x, z LIMIT 300"
)


def _build_catalog() -> Catalog:
    rng = random.Random(11)
    catalog = Catalog()
    a = catalog.create_table(
        "a",
        Schema(
            [
                Column("x", INT),
                Column("y", INT),
                Column("d", DOUBLE),
                Column("pad", char(8)),
            ]
        ),
    )
    a.load_rows(
        (
            rng.randrange(60),
            rng.randrange(50),
            float(rng.randrange(40)) / 4,
            f"p{rng.randrange(9)}",
        )
        for _ in range(3000)
    )
    b = catalog.create_table(
        "b", Schema([Column("x", INT), Column("w", INT)])
    )
    b.load_rows(
        (rng.randrange(60), rng.randrange(100)) for _ in range(400)
    )
    c = catalog.create_table(
        "c", Schema([Column("y", INT), Column("z", INT)])
    )
    c.load_rows(
        (rng.randrange(50), rng.randrange(100)) for _ in range(300)
    )
    c2 = catalog.create_table(
        "c2", Schema([Column("d", DOUBLE), Column("z", INT)])
    )
    c2.load_rows(
        (float(rng.randrange(40)) / 4, rng.randrange(100))
        for _ in range(300)
    )
    catalog.analyze()
    return catalog


@pytest.fixture(scope="module")
def catalog() -> Catalog:
    return _build_catalog()


def _canonical(rows):
    return sorted(repr(list(row)) for row in rows)


def test_plan_contains_restage(catalog):
    engine = HiqueEngine(catalog, planner_config=MERGE)
    try:
        assert "Restage" in engine.explain(SQL)
    finally:
        engine.close()


def test_all_six_engines_agree_with_parallel_restage(catalog):
    """Every engine configuration returns the same rows the parallel-
    restage hique run does (canonicalized: ORDER BY x,w,z leaves ties
    impossible, but engines may differ on int/float types)."""
    expected = _canonical(
        reference_evaluate(Binder(catalog).bind(parse(SQL)))
    )
    with Database(catalog=catalog) as db:
        db.set_parallel(**FANOUT)
        for kind in ENGINE_KINDS:
            got = db.execute(SQL, engine=kind)
            assert _canonical(got) == expected, kind
        stats = db.last_exec_stats("hique")
        assert stats is not None


@pytest.mark.parametrize("force_join", ["merge", "hash", "hybrid"])
def test_restage_parallel_and_byte_identical(catalog, force_join):
    """Sort, fine-partition and coarse-partition restages all fan out
    and reproduce the serial rows exactly."""
    planner = PlannerConfig(force_join=force_join)
    serial = HiqueEngine(catalog, planner_config=planner, parallel=SERIAL)
    parallel = HiqueEngine(
        catalog,
        planner_config=planner,
        parallel=ParallelConfig(**FANOUT),
    )
    try:
        assert "Restage" in serial.explain(SQL)
        assert parallel.execute(SQL) == serial.execute(SQL)
        stats = parallel.last_exec_stats
        assert stats is not None and stats.parallel, stats
        # Acceptance: a large intermediate's Restage is no longer a
        # serial decision in the stats notes.
        assert not any("restage" in note for note in stats.notes), stats
    finally:
        serial.close()
        parallel.close()


def test_hybrid_aggregation_restage_parallel(catalog):
    planner = PlannerConfig(force_agg="hybrid")
    serial = HiqueEngine(catalog, planner_config=planner, parallel=SERIAL)
    parallel = HiqueEngine(
        catalog,
        planner_config=planner,
        parallel=ParallelConfig(**FANOUT),
    )
    try:
        assert "Restage" in serial.explain(SQL_AGG)
        assert parallel.execute(SQL_AGG) == serial.execute(SQL_AGG)
        stats = parallel.last_exec_stats
        assert stats is not None and stats.parallel
        assert not any(
            "restage" in note for note in stats.notes
        ), stats
    finally:
        serial.close()
        parallel.close()


def test_double_restage_keys_stay_parallel(catalog):
    """Sorting/partitioning never reassociates floats, so a DOUBLE
    restage key must not force the restage serial the way a DOUBLE
    sum does."""
    serial = HiqueEngine(catalog, planner_config=MERGE, parallel=SERIAL)
    parallel = HiqueEngine(
        catalog,
        planner_config=MERGE,
        parallel=ParallelConfig(**FANOUT),
    )
    try:
        assert "Restage" in serial.explain(SQL_DOUBLE)
        assert parallel.execute(SQL_DOUBLE) == serial.execute(SQL_DOUBLE)
        stats = parallel.last_exec_stats
        assert stats is not None and stats.parallel
        assert not any(
            "restage" in note for note in stats.notes
        ), stats
    finally:
        serial.close()
        parallel.close()


def test_small_restage_stays_serial_with_note(catalog):
    """Below ``min_rows`` the restage keeps its serial path — and says
    so in the stats notes."""
    engine = HiqueEngine(
        catalog,
        planner_config=MERGE,
        parallel=ParallelConfig(
            workers=3, morsel_pages=1, min_pages=1, min_rows=1_000_000
        ),
    )
    try:
        engine.execute(SQL)
        stats = engine.last_exec_stats
        assert stats is not None
        assert any(
            "restage input" in note and "min_rows" in note
            for note in stats.notes
        ), stats
    finally:
        engine.close()


def _restage_chunk_name(prepared) -> str:
    restage_ops = [
        op for op in prepared.plan.operators if isinstance(op, Restage)
    ]
    assert restage_ops, prepared.plan.explain()
    return prepared.generated.function_names[restage_ops[0].op_id] + "_chunk"


@pytest.mark.parametrize("force_join", ["merge", "hybrid"])
def test_restage_chunk_crash_surfaces_error(catalog, force_join):
    """A restage chunk task dying mid-run surfaces its error
    cleanly (no hang, no partial rows) and the engine keeps serving."""
    engine = HiqueEngine(
        catalog,
        planner_config=PlannerConfig(force_join=force_join),
        parallel=ParallelConfig(**FANOUT),
    )
    try:
        prepared = engine.prepare(SQL, name="crashy")
        chunk_name = _restage_chunk_name(prepared)
        # The scheduler's entry points are linked on the first scheduled
        # run; link them now so the patch is not overwritten.
        prepared.compiled.link_scheduled()

        def boom(ctx, rows):
            raise RuntimeError("restage chunk died")

        prepared.compiled.namespace[chunk_name] = boom
        with pytest.raises(RuntimeError, match="restage chunk died"):
            engine.execute_prepared(prepared)
        engine.clear_cache()
        assert engine.execute(SQL) == engine.execute(SQL)
    finally:
        engine.close()


def test_missing_chunk_entry_falls_back_serial(catalog):
    """An (older) module without the chunk entry point degrades to the
    serial restage with a stats note instead of failing."""
    engine = HiqueEngine(
        catalog, planner_config=MERGE, parallel=ParallelConfig(**FANOUT)
    )
    serial = HiqueEngine(catalog, planner_config=MERGE, parallel=SERIAL)
    try:
        prepared = engine.prepare(SQL, name="legacy")
        chunk_name = _restage_chunk_name(prepared)
        prepared.compiled.link_scheduled()
        del prepared.compiled.namespace[chunk_name]
        assert engine.execute_prepared(prepared) == serial.execute(SQL)
        stats = engine.last_exec_stats
        assert stats is not None
        assert any(
            "restage module lacks a chunk entry point" in note
            for note in stats.notes
        ), stats
    finally:
        engine.close()
        serial.close()


def test_generated_source_has_chunk_entry(catalog):
    engine = HiqueEngine(catalog, planner_config=MERGE)
    try:
        source = engine.generate_source(SQL)
        # The chunk entry aliases the serial restage function (the
        # serial body is already correct over any private row chunk).
        assert "_chunk = restage_o" in source
    finally:
        engine.close()
