"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the individual mechanisms
the paper's design rests on:

* **partition count** for the hybrid hash-sort-merge join (the paper
  sizes M so a partition fits half the L2 cache);
* **staging prep placement** — sorting partitions during staging vs
  right before merging (Section V-B argues the latter keeps them L2
  resident);
* **join teams vs binary cascades** at fixed table count;
* **prepared-query reuse** — executing a held prepared query vs
  preparing from scratch each time (the paper's Section VI-D remark);
* **buffer-pool pressure** — the same scan with an ample vs tiny pool.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SCALE, save_result
from repro.bench.experiments import _JOIN_SQL, get_scale
from repro.bench.reporting import ExperimentResult
from repro.bench.synth import make_join_pair, make_team_tables
from repro.core.engine import HiqueEngine
from repro.plan.optimizer import PlannerConfig
from repro.storage.catalog import Catalog


@pytest.fixture(scope="module")
def join_workload():
    sizes = get_scale(BENCH_SCALE)
    catalog = Catalog()
    make_join_pair(catalog, sizes.join2_rows, sizes.join2_rows,
                   sizes.join2_matches)
    return catalog


@pytest.fixture(scope="module")
def partitions_report(join_workload):
    import time

    result = ExperimentResult(
        "Ablation: hybrid-join partition count (seconds)",
        ["Partitions", "Hybrid-HIQUE"],
    )
    engine = HiqueEngine(join_workload)
    for partitions in (2, 8, 32, 128, 512):
        prepared = engine.prepare(
            _JOIN_SQL,
            planner_config=PlannerConfig(
                force_join="hybrid", force_partitions=partitions
            ),
        )
        started = time.perf_counter()
        engine.execute_prepared(prepared)
        result.add(partitions, time.perf_counter() - started)
    result.note(
        "the paper picks M so each partition fits half the L2 cache; "
        "in Python the sweet spot is flat but extremes cost extra "
        "list/bookkeeping work"
    )
    save_result(result)
    return result


def test_partitions_8(benchmark, partitions_report, join_workload):
    engine = HiqueEngine(join_workload)
    prepared = engine.prepare(
        _JOIN_SQL,
        planner_config=PlannerConfig(force_join="hybrid",
                                     force_partitions=8),
    )
    benchmark.pedantic(lambda: engine.execute_prepared(prepared), rounds=3)


def test_partitions_128(benchmark, join_workload):
    engine = HiqueEngine(join_workload)
    prepared = engine.prepare(
        _JOIN_SQL,
        planner_config=PlannerConfig(force_join="hybrid",
                                     force_partitions=128),
    )
    benchmark.pedantic(lambda: engine.execute_prepared(prepared), rounds=3)


def test_merge_vs_hybrid_same_workload(benchmark, join_workload):
    engine = HiqueEngine(join_workload)
    prepared = engine.prepare(
        _JOIN_SQL,
        planner_config=PlannerConfig(force_join="merge"),
    )
    benchmark.pedantic(lambda: engine.execute_prepared(prepared), rounds=3)


@pytest.fixture(scope="module")
def team_workload():
    sizes = get_scale(BENCH_SCALE)
    catalog = Catalog()
    tables = make_team_tables(
        catalog,
        big_rows=sizes.scan_rows,
        small_rows=max(sizes.scan_rows // 10, 10),
        num_small=4,
    )
    dims = [t.name for t in tables[1:]]
    select = ", ".join(["fact.f1"] + [f"{d}.f1" for d in dims])
    where = " AND ".join(f"fact.k = {d}.k" for d in dims)
    return catalog, f"SELECT {select} FROM fact, {', '.join(dims)} " \
                    f"WHERE {where}"


def test_team_enabled(benchmark, team_workload):
    catalog, sql = team_workload
    engine = HiqueEngine(catalog)
    prepared = engine.prepare(
        sql,
        planner_config=PlannerConfig(enable_join_teams=True,
                                     force_join="merge"),
    )
    benchmark.pedantic(lambda: engine.execute_prepared(prepared), rounds=3)


def test_team_disabled(benchmark, team_workload):
    catalog, sql = team_workload
    engine = HiqueEngine(catalog)
    prepared = engine.prepare(
        sql,
        planner_config=PlannerConfig(enable_join_teams=False,
                                     force_join="merge"),
    )
    benchmark.pedantic(lambda: engine.execute_prepared(prepared), rounds=3)


def test_prepared_query_reuse(benchmark, join_workload):
    """Executing a held prepared query (the paper's recommendation for
    frequently issued queries): preparation is paid once, outside the
    timed rounds."""
    engine = HiqueEngine(join_workload)
    prepared = engine.prepare(_JOIN_SQL)
    benchmark.pedantic(lambda: engine.execute_prepared(prepared), rounds=3)


def test_prepare_from_scratch(benchmark, join_workload):
    engine = HiqueEngine(join_workload)

    def cold_roundtrip():
        prepared = engine.prepare(_JOIN_SQL)
        return engine.execute_prepared(prepared)

    benchmark.pedantic(cold_roundtrip, rounds=3)


def test_buffer_pool_pressure(benchmark):
    """Same scan under an ample pool vs one that must evict constantly."""
    from repro.storage import (
        BufferManager, Catalog, Column, INT, Schema, Table,
    )

    buffer = BufferManager(capacity=8)
    catalog = Catalog(buffer)
    schema = Schema([Column("k", INT), Column("v", INT)])
    table = Table("t", schema, buffer=buffer)
    table.load_rows((i % 10, i) for i in range(20_000))
    catalog.register(table)
    catalog.analyze()
    engine = HiqueEngine(catalog)
    prepared = engine.prepare("SELECT k, sum(v) AS s FROM t GROUP BY k")
    benchmark.pedantic(lambda: engine.execute_prepared(prepared), rounds=3)
