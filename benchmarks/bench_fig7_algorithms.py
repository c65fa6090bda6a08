"""Figure 7: performance of the holistic algorithms.

Regenerates all four panels — join scalability (a), multi-way joins /
join teams (b), join predicate selectivity (c), grouping cardinality
(d) — and benchmarks the headline configurations of each.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SCALE, save_result
from repro.bench.experiments import (
    _AGG_SQL,
    _JOIN_SQL,
    fig7a,
    fig7b,
    fig7c,
    fig7d,
    get_scale,
)
from repro.bench.synth import make_group_table, make_join_pair, make_team_tables
from repro.core.engine import HiqueEngine
from repro.engines.volcano import VolcanoEngine
from repro.plan.optimizer import PlannerConfig
from repro.storage.catalog import Catalog


@pytest.fixture(scope="module")
def fig7_reports():
    results = [
        fig7a(BENCH_SCALE),
        fig7b(BENCH_SCALE),
        fig7c(BENCH_SCALE),
        fig7d(BENCH_SCALE),
    ]
    for result in results:
        save_result(result)
    return results


@pytest.fixture(scope="module")
def scalability_workload():
    sizes = get_scale(BENCH_SCALE)
    catalog = Catalog()
    make_join_pair(catalog, sizes.scan_rows, sizes.scan_rows * 4, 10)
    return catalog


@pytest.fixture(scope="module")
def team_workload():
    sizes = get_scale(BENCH_SCALE)
    catalog = Catalog()
    tables = make_team_tables(
        catalog,
        big_rows=sizes.scan_rows,
        small_rows=max(sizes.scan_rows // 10, 10),
        num_small=3,
    )
    dims = [t.name for t in tables[1:]]
    select = ", ".join(["fact.f1"] + [f"{d}.f1" for d in dims])
    where = " AND ".join(f"fact.k = {d}.k" for d in dims)
    sql = f"SELECT {select} FROM fact, {', '.join(dims)} WHERE {where}"
    return catalog, sql


@pytest.fixture(scope="module")
def grouping_workload():
    sizes = get_scale(BENCH_SCALE)
    catalog = Catalog()
    make_group_table(catalog, sizes.agg_rows, 100)
    return catalog


def test_fig7a_merge_hique(benchmark, fig7_reports, scalability_workload):
    engine = HiqueEngine(scalability_workload)
    prepared = engine.prepare(
        _JOIN_SQL,
        planner_config=PlannerConfig(force_join="merge"),
    )
    benchmark.pedantic(lambda: engine.execute_prepared(prepared), rounds=3)


def test_fig7a_hybrid_hique(benchmark, scalability_workload):
    engine = HiqueEngine(scalability_workload)
    prepared = engine.prepare(
        _JOIN_SQL,
        planner_config=PlannerConfig(force_join="hybrid"),
    )
    benchmark.pedantic(lambda: engine.execute_prepared(prepared), rounds=3)


def test_fig7a_merge_iterators(benchmark, scalability_workload):
    engine = VolcanoEngine(scalability_workload)
    plan = engine.plan(
        _JOIN_SQL, planner_config=PlannerConfig(force_join="merge")
    )
    benchmark.pedantic(lambda: engine.execute_plan(plan), rounds=3)


def test_fig7b_team_merge_hique(benchmark, team_workload):
    catalog, sql = team_workload
    engine = HiqueEngine(catalog)
    prepared = engine.prepare(
        sql,
        planner_config=PlannerConfig(
            enable_join_teams=True, force_join="merge"
        ),
    )
    benchmark.pedantic(lambda: engine.execute_prepared(prepared), rounds=3)


def test_fig7b_binary_merge_iterators(benchmark, team_workload):
    catalog, sql = team_workload
    engine = VolcanoEngine(catalog)
    plan = engine.plan(
        sql,
        planner_config=PlannerConfig(
            enable_join_teams=False, force_join="merge"
        ),
    )
    benchmark.pedantic(lambda: engine.execute_plan(plan), rounds=3)


def test_fig7d_map_hique(benchmark, grouping_workload):
    engine = HiqueEngine(grouping_workload)
    prepared = engine.prepare(
        _AGG_SQL,
        planner_config=PlannerConfig(force_agg="map"),
    )
    benchmark.pedantic(lambda: engine.execute_prepared(prepared), rounds=3)


def test_fig7d_hybrid_hique(benchmark, grouping_workload):
    engine = HiqueEngine(grouping_workload)
    prepared = engine.prepare(
        _AGG_SQL,
        planner_config=PlannerConfig(
            force_agg="hybrid", force_partitions=64
        ),
    )
    benchmark.pedantic(lambda: engine.execute_prepared(prepared), rounds=3)


def test_fig7d_map_iterators(benchmark, grouping_workload):
    engine = VolcanoEngine(grouping_workload)
    plan = engine.plan(
        _AGG_SQL, planner_config=PlannerConfig(force_agg="map")
    )
    benchmark.pedantic(lambda: engine.execute_plan(plan), rounds=3)
