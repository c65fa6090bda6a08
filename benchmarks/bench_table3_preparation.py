"""Table III: query preparation cost (parse/optimize/generate/compile)."""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SCALE, save_result
from repro.bench.experiments import get_scale, make_tpch_database, table3
from repro.bench.tpch import Q1, Q10, Q3
from repro.core.emitter import OPT_O0, OPT_O2


@pytest.fixture(scope="module")
def tpch_database():
    sizes = get_scale(BENCH_SCALE)
    return make_tpch_database(sizes.tpch_sf)


@pytest.fixture(scope="module")
def table3_report(tpch_database):
    result = table3(BENCH_SCALE, db=tpch_database)
    save_result(result)
    return result


def _prepare_runner(db, sql, opt_level):
    engine = db.engine("hique")
    return lambda: engine.prepare(sql, opt_level=opt_level)


def test_prepare_q1_o2(benchmark, table3_report, tpch_database):
    benchmark.pedantic(
        _prepare_runner(tpch_database, Q1, OPT_O2), rounds=5
    )


def test_prepare_q1_o0(benchmark, tpch_database):
    benchmark.pedantic(
        _prepare_runner(tpch_database, Q1, OPT_O0), rounds=5
    )


def test_prepare_q3_o2(benchmark, tpch_database):
    benchmark.pedantic(
        _prepare_runner(tpch_database, Q3, OPT_O2), rounds=5
    )


def test_prepare_q10_o2(benchmark, tpch_database):
    benchmark.pedantic(
        _prepare_runner(tpch_database, Q10, OPT_O2), rounds=5
    )


def test_preparation_is_milliseconds(table3_report):
    """Preparation stays in the paper's regime: a handful of ms."""
    for row in table3_report.rows:
        _name, parse_ms, optimize_ms, generate_ms, c0, c2, src, binary = row
        assert parse_ms + optimize_ms + generate_ms + c2 < 1000
        assert src > 0
        assert binary > 0
