"""Figure 6: aggregation profiling across the five code versions."""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SCALE, save_result
from repro.bench.experiments import _AGG_SQL, fig6, get_scale
from repro.bench.synth import make_group_table
from repro.core.engine import HiqueEngine
from repro.engines.hardcoded import hybrid_agg_hardcoded, map_agg_hardcoded
from repro.engines.volcano import VolcanoEngine
from repro.plan.optimizer import PlannerConfig
from repro.storage.catalog import Catalog


@pytest.fixture(scope="module")
def fig6_report():
    results = fig6(BENCH_SCALE)
    for result in results:
        save_result(result)
    return results


@pytest.fixture(scope="module")
def agg1_workload():
    sizes = get_scale(BENCH_SCALE)
    catalog = Catalog()
    table = make_group_table(catalog, sizes.agg_rows, sizes.agg1_groups)
    return catalog, table, PlannerConfig(
        force_agg="hybrid", force_partitions=64
    )


@pytest.fixture(scope="module")
def agg2_workload():
    sizes = get_scale(BENCH_SCALE)
    catalog = Catalog()
    table = make_group_table(catalog, sizes.agg_rows, sizes.agg2_groups)
    return catalog, table, PlannerConfig(force_agg="map")


def _volcano_runner(catalog, config, generic):
    engine = VolcanoEngine(catalog, generic=generic)
    plan = engine.plan(_AGG_SQL, planner_config=config)
    return lambda: engine.execute_plan(plan)


def _hique_runner(catalog, config):
    engine = HiqueEngine(catalog)
    prepared = engine.prepare(_AGG_SQL, planner_config=config)
    return lambda: engine.execute_prepared(prepared)


def test_agg1_generic_iterators(benchmark, fig6_report, agg1_workload):
    catalog, _table, config = agg1_workload
    benchmark.pedantic(
        _volcano_runner(catalog, config, generic=True), rounds=3
    )


def test_agg1_optimized_iterators(benchmark, agg1_workload):
    catalog, _table, config = agg1_workload
    benchmark.pedantic(
        _volcano_runner(catalog, config, generic=False), rounds=3
    )


def test_agg1_generic_hardcoded(benchmark, agg1_workload):
    _catalog, table, _config = agg1_workload
    benchmark.pedantic(
        lambda: hybrid_agg_hardcoded(
            table, 0, (1, 2), (0, 1, 2), num_partitions=64,
            style="generic",
        ),
        rounds=3,
    )


def test_agg1_optimized_hardcoded(benchmark, agg1_workload):
    _catalog, table, _config = agg1_workload
    benchmark.pedantic(
        lambda: hybrid_agg_hardcoded(
            table, 0, (1, 2), (0, 1, 2), num_partitions=64,
            style="optimized",
        ),
        rounds=3,
    )


def test_agg1_hique(benchmark, agg1_workload):
    catalog, _table, config = agg1_workload
    benchmark.pedantic(_hique_runner(catalog, config), rounds=3)


def test_agg2_generic_iterators(benchmark, agg2_workload):
    catalog, _table, config = agg2_workload
    benchmark.pedantic(
        _volcano_runner(catalog, config, generic=True), rounds=3
    )


def test_agg2_optimized_iterators(benchmark, agg2_workload):
    catalog, _table, config = agg2_workload
    benchmark.pedantic(
        _volcano_runner(catalog, config, generic=False), rounds=3
    )


def test_agg2_generic_hardcoded(benchmark, agg2_workload):
    _catalog, table, _config = agg2_workload
    benchmark.pedantic(
        lambda: map_agg_hardcoded(
            table, 0, (1, 2), (0, 1, 2), style="generic"
        ),
        rounds=3,
    )


def test_agg2_optimized_hardcoded(benchmark, agg2_workload):
    _catalog, table, _config = agg2_workload
    benchmark.pedantic(
        lambda: map_agg_hardcoded(
            table, 0, (1, 2), (0, 1, 2), style="optimized"
        ),
        rounds=3,
    )


def test_agg2_hique(benchmark, agg2_workload):
    catalog, _table, config = agg2_workload
    benchmark.pedantic(_hique_runner(catalog, config), rounds=3)
