"""Figure 8: TPC-H Q1/Q3/Q10 across the four comparison systems."""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SCALE, save_result
from repro.bench.experiments import fig8, get_scale, make_tpch_database
from repro.bench.tpch import Q1, Q10, Q3
from repro.core.engine import HiqueEngine


@pytest.fixture(scope="module")
def tpch_database():
    sizes = get_scale(BENCH_SCALE)
    db = make_tpch_database(sizes.tpch_sf)
    db.engine("vectorized").preload()
    return db


@pytest.fixture(scope="module")
def fig8_report(tpch_database):
    result = fig8(BENCH_SCALE, db=tpch_database)
    save_result(result)
    return result


def _hique_runner(db, sql):
    # A bare engine has no intermediate cache: every round executes the
    # generated code, never a recycled answer.
    engine = HiqueEngine(db.catalog)
    prepared = engine.prepare(sql)
    return lambda: engine.execute_prepared(prepared)


def test_q1_hique(benchmark, fig8_report, tpch_database):
    benchmark.pedantic(_hique_runner(tpch_database, Q1), rounds=3)


def test_q1_postgres_analog(benchmark, tpch_database):
    engine = tpch_database.engine("volcano-generic")
    benchmark.pedantic(lambda: engine.execute(Q1), rounds=2)


def test_q1_systemx_analog(benchmark, tpch_database):
    engine = tpch_database.engine("systemx")
    benchmark.pedantic(lambda: engine.execute(Q1), rounds=2)


def test_q1_monetdb_analog(benchmark, tpch_database):
    engine = tpch_database.engine("vectorized")
    benchmark.pedantic(lambda: engine.execute(Q1), rounds=3)


def test_q3_hique(benchmark, tpch_database):
    benchmark.pedantic(_hique_runner(tpch_database, Q3), rounds=3)


def test_q3_postgres_analog(benchmark, tpch_database):
    engine = tpch_database.engine("volcano-generic")
    benchmark.pedantic(lambda: engine.execute(Q3), rounds=2)


def test_q3_monetdb_analog(benchmark, tpch_database):
    engine = tpch_database.engine("vectorized")
    benchmark.pedantic(lambda: engine.execute(Q3), rounds=3)


def test_q10_hique(benchmark, tpch_database):
    benchmark.pedantic(_hique_runner(tpch_database, Q10), rounds=3)


def test_q10_postgres_analog(benchmark, tpch_database):
    engine = tpch_database.engine("volcano-generic")
    benchmark.pedantic(lambda: engine.execute(Q10), rounds=2)


def test_q10_monetdb_analog(benchmark, tpch_database):
    engine = tpch_database.engine("vectorized")
    benchmark.pedantic(lambda: engine.execute(Q10), rounds=3)


def test_fig8_shape(fig8_report):
    """HIQUE beats both NSM iterator systems on every query."""
    hique = fig8_report.row_by("System", "HIQUE")
    postgres = fig8_report.row_by("System", "PostgreSQL*")
    systemx = fig8_report.row_by("System", "System X*")
    for column in range(1, 4):
        assert hique[column] < postgres[column]
        assert hique[column] < systemx[column]
