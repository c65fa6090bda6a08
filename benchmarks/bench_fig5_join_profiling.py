"""Figure 5: join-query profiling across the five code versions.

Regenerates the execution-time breakdowns (5a, 5b) and hardware-metric
tables (5c, 5d) via the simulated memory hierarchy, and benchmarks the
wall time of every code version on both join queries.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SCALE, save_result
from repro.bench.experiments import _JOIN_SQL, fig5, get_scale
from repro.bench.synth import make_join_pair
from repro.core.engine import HiqueEngine
from repro.engines.hardcoded import hybrid_join_hardcoded, merge_join_hardcoded
from repro.engines.volcano import VolcanoEngine
from repro.plan.optimizer import PlannerConfig
from repro.storage.catalog import Catalog


@pytest.fixture(scope="module")
def fig5_report():
    """Run the traced profiling pass once and save all four tables."""
    results = fig5(BENCH_SCALE)
    for result in results:
        save_result(result)
    return results


@pytest.fixture(scope="module")
def join1_workload():
    sizes = get_scale(BENCH_SCALE)
    catalog = Catalog()
    left, right = make_join_pair(
        catalog, sizes.join1_rows, sizes.join1_rows, sizes.join1_matches
    )
    return catalog, left, right, PlannerConfig(force_join="merge")


@pytest.fixture(scope="module")
def join2_workload():
    sizes = get_scale(BENCH_SCALE)
    catalog = Catalog()
    left, right = make_join_pair(
        catalog, sizes.join2_rows, sizes.join2_rows, sizes.join2_matches
    )
    return catalog, left, right, PlannerConfig(
        force_join="hybrid", force_partitions=64
    )


def _volcano_runner(catalog, config, generic):
    engine = VolcanoEngine(catalog, generic=generic)
    plan = engine.plan(_JOIN_SQL, planner_config=config)
    return lambda: engine.execute_plan(plan)


def _hique_runner(catalog, config):
    engine = HiqueEngine(catalog)
    prepared = engine.prepare(_JOIN_SQL, planner_config=config)
    return lambda: engine.execute_prepared(prepared)


def test_join1_generic_iterators(benchmark, fig5_report, join1_workload):
    catalog, _left, _right, config = join1_workload
    benchmark.pedantic(
        _volcano_runner(catalog, config, generic=True), rounds=3
    )


def test_join1_optimized_iterators(benchmark, join1_workload):
    catalog, _left, _right, config = join1_workload
    benchmark.pedantic(
        _volcano_runner(catalog, config, generic=False), rounds=3
    )


def test_join1_generic_hardcoded(benchmark, join1_workload):
    _catalog, left, right, _config = join1_workload
    benchmark.pedantic(
        lambda: merge_join_hardcoded(
            left, right, 0, 0, (0, 1), (0, 2), style="generic",
            collect=True,
        ),
        rounds=3,
    )


def test_join1_optimized_hardcoded(benchmark, join1_workload):
    _catalog, left, right, _config = join1_workload
    benchmark.pedantic(
        lambda: merge_join_hardcoded(
            left, right, 0, 0, (0, 1), (0, 2), style="optimized",
            collect=True,
        ),
        rounds=3,
    )


def test_join1_hique(benchmark, join1_workload):
    catalog, _left, _right, config = join1_workload
    benchmark.pedantic(_hique_runner(catalog, config), rounds=3)


def test_join2_generic_iterators(benchmark, join2_workload):
    catalog, _left, _right, config = join2_workload
    benchmark.pedantic(
        _volcano_runner(catalog, config, generic=True), rounds=3
    )


def test_join2_optimized_iterators(benchmark, join2_workload):
    catalog, _left, _right, config = join2_workload
    benchmark.pedantic(
        _volcano_runner(catalog, config, generic=False), rounds=3
    )


def test_join2_generic_hardcoded(benchmark, join2_workload):
    _catalog, left, right, _config = join2_workload
    benchmark.pedantic(
        lambda: hybrid_join_hardcoded(
            left, right, 0, 0, (0, 1), (0, 2), num_partitions=64,
            style="generic", collect=True,
        ),
        rounds=3,
    )


def test_join2_optimized_hardcoded(benchmark, join2_workload):
    _catalog, left, right, _config = join2_workload
    benchmark.pedantic(
        lambda: hybrid_join_hardcoded(
            left, right, 0, 0, (0, 1), (0, 2), num_partitions=64,
            style="optimized", collect=True,
        ),
        rounds=3,
    )


def test_join2_hique(benchmark, join2_workload):
    catalog, _left, _right, config = join2_workload
    benchmark.pedantic(_hique_runner(catalog, config), rounds=3)
