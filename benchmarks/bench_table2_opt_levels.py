"""Table II: effect of compiler optimization (O0 vs O2) on all versions."""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SCALE, save_result
from repro.bench.experiments import _JOIN_SQL, get_scale, table2
from repro.bench.synth import make_join_pair
from repro.core.emitter import OPT_O0, OPT_O2
from repro.core.engine import HiqueEngine
from repro.plan.optimizer import PlannerConfig
from repro.storage.catalog import Catalog


@pytest.fixture(scope="module")
def table2_report():
    result = table2(BENCH_SCALE)
    save_result(result)
    return result


@pytest.fixture(scope="module")
def join1_engine():
    sizes = get_scale(BENCH_SCALE)
    catalog = Catalog()
    make_join_pair(
        catalog, sizes.join1_rows, sizes.join1_rows, sizes.join1_matches
    )
    return HiqueEngine(catalog), PlannerConfig(force_join="merge")


def test_hique_o0(benchmark, table2_report, join1_engine):
    engine, config = join1_engine
    prepared = engine.prepare(
        _JOIN_SQL, opt_level=OPT_O0, planner_config=config
    )
    benchmark.pedantic(
        lambda: engine.execute_prepared(prepared), rounds=3
    )


def test_hique_o2(benchmark, join1_engine):
    engine, config = join1_engine
    prepared = engine.prepare(
        _JOIN_SQL, opt_level=OPT_O2, planner_config=config
    )
    benchmark.pedantic(
        lambda: engine.execute_prepared(prepared), rounds=3
    )


def test_table2_shape(table2_report):
    """O2 beats O0 for every version on every query (10% jitter slack)."""
    for row in table2_report.rows:
        label, *times = row
        pairs = list(zip(times[0::2], times[1::2]))
        for o0_time, o2_time in pairs:
            assert o2_time < o0_time * 1.10, (label, o0_time, o2_time)
