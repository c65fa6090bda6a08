"""Experiment drivers: one function per reproduced table/figure.

Each driver builds its workload, runs every configuration the paper
compares, and returns :class:`~repro.bench.reporting.ExperimentResult`
objects whose ``render()`` prints a paper-style table.  Scales are
reduced from the paper's (Python cannot scan millions of rows per
benchmark iteration); EXPERIMENTS.md records the scale used and the
paper-vs-measured shape for every experiment.

Drivers:

* :func:`fig5`  — join profiling (time breakdown + hardware metrics)
* :func:`fig6`  — aggregation profiling (same)
* :func:`table2` — effect of "compiler" optimization (O0 vs O2)
* :func:`fig7a` — join scalability
* :func:`fig7b` — multi-way joins / join teams
* :func:`fig7c` — join predicate selectivity
* :func:`fig7d` — grouping attribute cardinality
* :func:`fig8`  — TPC-H Q1/Q3/Q10 across the four systems
* :func:`table3` — query preparation cost
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.api import Database
from repro.bench.reporting import ExperimentResult
from repro.bench.synth import make_group_table, make_join_pair, make_team_tables
from repro.bench.systems import FIGURE8_SYSTEMS
from repro.bench.tpch import QUERIES, generate_tpch
from repro.core.emitter import OPT_O0, OPT_O2
from repro.core.engine import HiqueEngine
from repro.parallel.stats import ParallelConfig
from repro.engines.hardcoded import (
    hybrid_agg_hardcoded,
    hybrid_join_hardcoded,
    map_agg_hardcoded,
    merge_join_hardcoded,
)
from repro.engines.volcano import VolcanoEngine
from repro.memsim.probe import Probe, ProfileReport, snapshot
from repro.plan.optimizer import PlannerConfig
from repro.storage.catalog import Catalog


def _serial_hique(catalog) -> HiqueEngine:
    """A HIQUE engine pinned to serial execution.

    The figure/table drivers reproduce the paper's single-threaded
    measurements; one worker keeps every run on the serial walk even
    over disk-backed tables or when REPRO_EXECUTOR picks another
    backend.
    """
    return HiqueEngine(catalog, parallel=ParallelConfig(workers=1))


# -- scales ------------------------------------------------------------------------


@dataclass(frozen=True)
class Scale:
    """Workload sizes for one run of the experiment suite."""

    name: str
    join1_rows: int  # Join Query #1 table cardinality (paper: 10 000)
    join1_matches: int  # matches per outer tuple (paper: 1 000)
    join2_rows: int  # Join Query #2 cardinality (paper: 1 000 000)
    join2_matches: int  # paper: 10
    agg_rows: int  # aggregation input (paper: 1 000 000)
    agg1_groups: int  # paper: 100 000
    agg2_groups: int  # paper: 10
    scan_rows: int  # fig7 base cardinality (paper: 1 000 000)
    tpch_sf: float  # paper: 1.0
    selectivity_levels: tuple[int, ...]  # fig7c matches (paper: 1..1000)
    group_levels: tuple[int, ...]  # fig7d group counts (paper: 10..100k)
    team_sizes: tuple[int, ...]  # fig7b table counts (paper: 2..8)
    inner_multipliers: tuple[int, ...]  # fig7a inner growth (paper: 1..10)


SCALES = {
    "tiny": Scale(
        name="tiny",
        join1_rows=240, join1_matches=24,
        join2_rows=1_600, join2_matches=8,
        agg_rows=2_000, agg1_groups=200, agg2_groups=8,
        scan_rows=2_000, tpch_sf=0.001,
        selectivity_levels=(1, 10),
        group_levels=(10, 100),
        team_sizes=(2, 3),
        inner_multipliers=(1, 2),
    ),
    "small": Scale(
        name="small",
        join1_rows=2_000, join1_matches=200,
        join2_rows=24_000, join2_matches=10,
        agg_rows=30_000, agg1_groups=3_000, agg2_groups=10,
        scan_rows=20_000, tpch_sf=0.01,
        selectivity_levels=(1, 10, 100),
        group_levels=(10, 100, 1_000, 10_000),
        team_sizes=(2, 4, 6, 8),
        inner_multipliers=(1, 2, 4, 8, 10),
    ),
    "medium": Scale(
        name="medium",
        join1_rows=5_000, join1_matches=500,
        join2_rows=60_000, join2_matches=10,
        agg_rows=100_000, agg1_groups=10_000, agg2_groups=10,
        scan_rows=60_000, tpch_sf=0.02,
        selectivity_levels=(1, 10, 100, 1_000),
        group_levels=(10, 100, 1_000, 10_000, 100_000),
        team_sizes=(2, 3, 4, 5, 6, 7, 8),
        inner_multipliers=(1, 2, 4, 6, 8, 10),
    ),
}


def get_scale(scale: str | Scale) -> Scale:
    if isinstance(scale, Scale):
        return scale
    return SCALES[scale]


def _timed(fn: Callable[[], object]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


#: The five code versions of Section VI-A, in the paper's order.
VERSION_LABELS = (
    "Generic iterators",
    "Optimized iterators",
    "Generic hard-coded",
    "Optimized hard-coded",
    "HIQUE",
)


@dataclass
class _Version:
    """One code version: an untraced timed runner + a traced runner."""

    label: str
    timed: Callable[[], object]
    traced: Callable[[Probe], object]


def _profile_versions(
    versions: list[_Version],
) -> tuple[list[float], list[ProfileReport]]:
    """Wall-time and simulated-hardware measurements per version."""
    seconds: list[float] = []
    reports: list[ProfileReport] = []
    for version in versions:
        seconds.append(_timed(version.timed))
        probe = Probe()
        version.traced(probe)
        reports.append(snapshot(version.label, probe))
    return seconds, reports


def _breakdown_result(
    name: str, versions: list[str], seconds: list[float],
    reports: list[ProfileReport],
) -> ExperimentResult:
    result = ExperimentResult(
        name,
        [
            "Version", "Instr (model s)", "Resource stalls (s)",
            "L2 miss stalls (s)", "L1 miss stalls (s)",
            "Model total (s)", "Wall time (s)",
        ],
    )
    giga = 1.86e9
    for label, wall, report in zip(versions, seconds, reports):
        result.add(
            label,
            report.instruction_cycles / giga,
            report.resource_stall_cycles / giga,
            report.l2_stall_cycles / giga,
            report.d1_stall_cycles / giga,
            report.total_cycles / giga,
            wall,
        )
    return result


def _metrics_result(
    name: str, reports: list[ProfileReport]
) -> ExperimentResult:
    """Normalised hardware metrics (Figures 5(c,d)/6(c,d) layout)."""
    result = ExperimentResult(
        name,
        [
            "Version", "CPI", "Retired instr (%)", "Function calls (%)",
            "D1 accesses (%)", "D1 prefetch eff (%)",
            "L2 prefetch eff (%)",
        ],
    )
    base = reports[0]
    for report in reports:
        result.add(
            report.label,
            round(report.cpi, 3),
            _pct(report.retired_instructions, base.retired_instructions),
            _pct(report.function_calls, base.function_calls),
            _pct(report.d1_accesses, base.d1_accesses),
            round(report.d1_prefetch_efficiency * 100, 2),
            round(report.l2_prefetch_efficiency * 100, 2),
        )
    return result


def _pct(value: float, base: float) -> float:
    if base <= 0:
        return 0.0
    return round(100.0 * value / base, 2)


# -- Figure 5: join profiling --------------------------------------------------------


def _join_query_versions(
    catalog: Catalog,
    sql: str,
    config: PlannerConfig,
    left_table,
    right_table,
    hardcoded: Callable,
    hardcoded_kwargs: dict,
) -> list[_Version]:
    versions: list[_Version] = []
    for label, generic in (
        ("Generic iterators", True),
        ("Optimized iterators", False),
    ):
        engine = VolcanoEngine(catalog, generic=generic)
        plan = engine.plan(sql, planner_config=config)
        versions.append(
            _Version(
                label,
                timed=lambda e=engine, p=plan: e.execute_plan(p),
                traced=lambda probe, e=engine, p=plan: e.execute_plan(
                    p, probe=probe
                ),
            )
        )
    for label, style in (
        ("Generic hard-coded", "generic"),
        ("Optimized hard-coded", "optimized"),
    ):
        versions.append(
            _Version(
                label,
                timed=lambda s=style: hardcoded(
                    left_table, right_table, style=s, collect=True,
                    **hardcoded_kwargs,
                ),
                traced=lambda probe, s=style: hardcoded(
                    left_table, right_table, style=s, probe=probe,
                    collect=True, **hardcoded_kwargs,
                ),
            )
        )
    hique = _serial_hique(catalog)
    prepared = hique.prepare(sql, planner_config=config, use_cache=False)
    prepared_traced = hique.prepare(
        sql, traced=True, planner_config=config, use_cache=False
    )
    versions.append(
        _Version(
            "HIQUE",
            timed=lambda: hique.execute_prepared(prepared),
            traced=lambda probe: hique.execute_prepared(
                prepared_traced, probe=probe
            ),
        )
    )
    return versions


#: SQL shape used by the join microbenchmarks: staged columns equal the
#: select list, so no separate projection pass runs in any engine.
_JOIN_SQL = (
    "SELECT o.k, o.f1, i.k, i.f2 FROM outer_t o, inner_t i "
    "WHERE o.k = i.k"
)


def fig5(scale: str | Scale = "small") -> list[ExperimentResult]:
    """Figure 5: join query profiling across the five code versions."""
    sizes = get_scale(scale)
    results: list[ExperimentResult] = []

    # Join Query #1: inflationary merge join (paper: 10k x 10k, x1000).
    catalog1 = Catalog()
    left1, right1 = make_join_pair(
        catalog1, sizes.join1_rows, sizes.join1_rows, sizes.join1_matches
    )
    config1 = PlannerConfig(force_join="merge")
    versions = _join_query_versions(
        catalog1, _JOIN_SQL, config1, left1, right1,
        merge_join_hardcoded,
        dict(left_key=0, right_key=0, left_fields=(0, 1),
             right_fields=(0, 2)),
    )
    seconds, reports = _profile_versions(versions)
    results.append(
        _breakdown_result(
            "Fig 5(a): execution time breakdown, Join Query #1 (merge)",
            list(VERSION_LABELS), seconds, reports,
        )
    )
    results.append(
        _metrics_result("Fig 5(c): hardware metrics, Join Query #1", reports)
    )

    # Join Query #2: larger tables, low selectivity, hybrid join.
    catalog2 = Catalog()
    left2, right2 = make_join_pair(
        catalog2, sizes.join2_rows, sizes.join2_rows, sizes.join2_matches
    )
    config2 = PlannerConfig(force_join="hybrid", force_partitions=64)
    versions = _join_query_versions(
        catalog2, _JOIN_SQL, config2, left2, right2,
        hybrid_join_hardcoded,
        dict(left_key=0, right_key=0, left_fields=(0, 1),
             right_fields=(0, 2), num_partitions=64),
    )
    seconds, reports = _profile_versions(versions)
    results.append(
        _breakdown_result(
            "Fig 5(b): execution time breakdown, Join Query #2 (hybrid)",
            list(VERSION_LABELS), seconds, reports,
        )
    )
    results.append(
        _metrics_result("Fig 5(d): hardware metrics, Join Query #2", reports)
    )
    return results


# -- Figure 6: aggregation profiling ------------------------------------------------------

_AGG_SQL = "SELECT k, sum(f1) AS s1, sum(f2) AS s2 FROM events GROUP BY k"


def _agg_query_versions(
    catalog: Catalog,
    config: PlannerConfig,
    table,
    hardcoded: Callable,
    hardcoded_kwargs: dict,
) -> list[_Version]:
    versions: list[_Version] = []
    for label, generic in (
        ("Generic iterators", True),
        ("Optimized iterators", False),
    ):
        engine = VolcanoEngine(catalog, generic=generic)
        plan = engine.plan(_AGG_SQL, planner_config=config)
        versions.append(
            _Version(
                label,
                timed=lambda e=engine, p=plan: e.execute_plan(p),
                traced=lambda probe, e=engine, p=plan: e.execute_plan(
                    p, probe=probe
                ),
            )
        )
    for label, style in (
        ("Generic hard-coded", "generic"),
        ("Optimized hard-coded", "optimized"),
    ):
        versions.append(
            _Version(
                label,
                timed=lambda s=style: hardcoded(
                    table, style=s, **hardcoded_kwargs
                ),
                traced=lambda probe, s=style: hardcoded(
                    table, style=s, probe=probe, **hardcoded_kwargs
                ),
            )
        )
    hique = _serial_hique(catalog)
    prepared = hique.prepare(_AGG_SQL, planner_config=config, use_cache=False)
    prepared_traced = hique.prepare(
        _AGG_SQL, traced=True, planner_config=config, use_cache=False
    )
    versions.append(
        _Version(
            "HIQUE",
            timed=lambda: hique.execute_prepared(prepared),
            traced=lambda probe: hique.execute_prepared(
                prepared_traced, probe=probe
            ),
        )
    )
    return versions


def fig6(scale: str | Scale = "small") -> list[ExperimentResult]:
    """Figure 6: aggregation profiling across the five code versions."""
    sizes = get_scale(scale)
    results: list[ExperimentResult] = []

    # Aggregation Query #1: many groups → hybrid hash-sort.
    catalog1 = Catalog()
    table1 = make_group_table(catalog1, sizes.agg_rows, sizes.agg1_groups)
    config1 = PlannerConfig(force_agg="hybrid", force_partitions=64)
    versions = _agg_query_versions(
        catalog1, config1, table1, hybrid_agg_hardcoded,
        dict(group_field=0, sum_fields=(1, 2), fields=(0, 1, 2),
             num_partitions=64),
    )
    seconds, reports = _profile_versions(versions)
    results.append(
        _breakdown_result(
            "Fig 6(a): execution time breakdown, Aggregation Query #1 "
            "(hybrid hash-sort)",
            list(VERSION_LABELS), seconds, reports,
        )
    )
    results.append(
        _metrics_result(
            "Fig 6(c): hardware metrics, Aggregation Query #1", reports
        )
    )

    # Aggregation Query #2: few groups → map aggregation.
    catalog2 = Catalog()
    table2_ = make_group_table(catalog2, sizes.agg_rows, sizes.agg2_groups)
    config2 = PlannerConfig(force_agg="map")
    versions = _agg_query_versions(
        catalog2, config2, table2_, map_agg_hardcoded,
        dict(group_field=0, sum_fields=(1, 2), fields=(0, 1, 2)),
    )
    seconds, reports = _profile_versions(versions)
    results.append(
        _breakdown_result(
            "Fig 6(b): execution time breakdown, Aggregation Query #2 (map)",
            list(VERSION_LABELS), seconds, reports,
        )
    )
    results.append(
        _metrics_result(
            "Fig 6(d): hardware metrics, Aggregation Query #2", reports
        )
    )
    return results


# -- Table II: effect of compiler optimization ----------------------------------------------


def table2(scale: str | Scale = "small") -> ExperimentResult:
    """Table II: response times at O0 vs O2 for all five versions.

    For the iterator and hard-coded versions, "compiling at -O0" is
    emulated by the deopt knob (an un-inlined call layer per tuple);
    HIQUE uses its real generation levels.
    """
    sizes = get_scale(scale)
    result = ExperimentResult(
        "Table II: effect of compiler optimization (seconds)",
        [
            "Version",
            "JQ1 -O0", "JQ1 -O2", "JQ2 -O0", "JQ2 -O2",
            "AQ1 -O0", "AQ1 -O2", "AQ2 -O0", "AQ2 -O2",
        ],
    )

    catalog_j1 = Catalog()
    j1 = make_join_pair(
        catalog_j1, sizes.join1_rows, sizes.join1_rows, sizes.join1_matches
    )
    catalog_j2 = Catalog()
    j2 = make_join_pair(
        catalog_j2, sizes.join2_rows, sizes.join2_rows, sizes.join2_matches
    )
    catalog_a1 = Catalog()
    a1 = make_group_table(catalog_a1, sizes.agg_rows, sizes.agg1_groups)
    catalog_a2 = Catalog()
    a2 = make_group_table(catalog_a2, sizes.agg_rows, sizes.agg2_groups)

    join_cfg1 = PlannerConfig(force_join="merge")
    join_cfg2 = PlannerConfig(force_join="hybrid", force_partitions=64)
    agg_cfg1 = PlannerConfig(force_agg="hybrid", force_partitions=64)
    agg_cfg2 = PlannerConfig(force_agg="map")

    workloads = [
        (catalog_j1, _JOIN_SQL, join_cfg1, "join1", j1),
        (catalog_j2, _JOIN_SQL, join_cfg2, "join2", j2),
        (catalog_a1, _AGG_SQL, agg_cfg1, "agg1", a1),
        (catalog_a2, _AGG_SQL, agg_cfg2, "agg2", a2),
    ]

    def volcano_times(generic: bool) -> list[float]:
        times = []
        for catalog, sql, config, _kind, _tables in workloads:
            for deopt in (True, False):
                engine = VolcanoEngine(catalog, generic=generic, deopt=deopt)
                plan = engine.plan(sql, planner_config=config)
                times.append(_timed(lambda: engine.execute_plan(plan)))
        return times

    def hardcoded_times(style: str) -> list[float]:
        times = []
        for _catalog, _sql, _config, kind, tables in workloads:
            for deopt in (True, False):
                times.append(
                    _timed(
                        lambda: _run_hardcoded(kind, tables, style, deopt)
                    )
                )
        return times

    def hique_times() -> list[float]:
        times = []
        for catalog, sql, config, _kind, _tables in workloads:
            engine = _serial_hique(catalog)
            for level in (OPT_O0, OPT_O2):
                prepared = engine.prepare(
                    sql, opt_level=level, planner_config=config,
                    use_cache=False,
                )
                times.append(
                    _timed(lambda: engine.execute_prepared(prepared))
                )
        return times

    result.add("Generic iterators", *volcano_times(generic=True))
    result.add("Optimized iterators", *volcano_times(generic=False))
    result.add("Generic hard-coded", *hardcoded_times("generic"))
    result.add("Optimized hard-coded", *hardcoded_times("optimized"))
    result.add("HIQUE", *hique_times())
    result.note(
        "-O0 emulated for non-generated versions via un-inlined call "
        "layers (deopt); HIQUE uses its actual generation levels."
    )
    return result


def _run_hardcoded(kind: str, tables, style: str, deopt: bool):
    if kind == "join1":
        left, right = tables
        return merge_join_hardcoded(
            left, right, 0, 0, (0, 1), (0, 2), style=style, collect=True,
            deopt=deopt,
        )
    if kind == "join2":
        left, right = tables
        return hybrid_join_hardcoded(
            left, right, 0, 0, (0, 1), (0, 2), num_partitions=64,
            style=style, collect=True, deopt=deopt,
        )
    if kind == "agg1":
        return hybrid_agg_hardcoded(
            tables, 0, (1, 2), (0, 1, 2), num_partitions=64, style=style,
            deopt=deopt,
        )
    return map_agg_hardcoded(
        tables, 0, (1, 2), (0, 1, 2), style=style, deopt=deopt
    )


# -- Figure 7(a): join scalability ------------------------------------------------------------


def fig7a(scale: str | Scale = "small") -> ExperimentResult:
    """Figure 7(a): join time vs inner-table cardinality."""
    sizes = get_scale(scale)
    result = ExperimentResult(
        "Fig 7(a): join scalability (seconds)",
        [
            "Inner rows",
            "Merge-Iterators", "Hybrid-Iterators",
            "Merge-HIQUE", "Hybrid-HIQUE",
        ],
    )
    outer_rows = sizes.scan_rows
    for multiplier in sizes.inner_multipliers:
        inner_rows = outer_rows * multiplier
        catalog = Catalog()
        make_join_pair(catalog, outer_rows, inner_rows, 10)
        row: list[object] = [inner_rows]
        for engine_kind in ("iterators", "hique"):
            for algorithm in ("merge", "hybrid"):
                config = PlannerConfig(force_join=algorithm)
                if engine_kind == "iterators":
                    engine = VolcanoEngine(catalog)
                    plan = engine.plan(_JOIN_SQL, planner_config=config)
                    row_time = _timed(lambda: engine.execute_plan(plan))
                else:
                    engine = _serial_hique(catalog)
                    prepared = engine.prepare(
                        _JOIN_SQL, planner_config=config, use_cache=False
                    )
                    row_time = _timed(
                        lambda: engine.execute_prepared(prepared)
                    )
                row.append(row_time)
        # Reorder: merge-it, hybrid-it, merge-hq, hybrid-hq already OK.
        result.add(*row)
    return result


# -- Figure 7(b): multi-way joins / join teams --------------------------------------------------


def fig7b(scale: str | Scale = "small") -> ExperimentResult:
    """Figure 7(b): multi-way join time vs number of joined tables."""
    sizes = get_scale(scale)
    result = ExperimentResult(
        "Fig 7(b): multi-way joins (seconds)",
        [
            "Tables",
            "Merge-Iterators", "Merge-HIQUE (binary)",
            "Merge-HIQUE (team)", "Hybrid-HIQUE (team)",
        ],
    )
    for num_tables in sizes.team_sizes:
        catalog = Catalog()
        tables = make_team_tables(
            catalog,
            big_rows=sizes.scan_rows,
            small_rows=max(sizes.scan_rows // 10, 10),
            num_small=num_tables - 1,
        )
        dims = [t.name for t in tables[1:]]
        select = ", ".join(["fact.f1"] + [f"{d}.f1" for d in dims])
        where = " AND ".join(f"fact.k = {d}.k" for d in dims)
        sql = f"SELECT {select} FROM fact, {', '.join(dims)} WHERE {where}"

        measurements = []
        # Binary merge joins through iterators.
        config = PlannerConfig(enable_join_teams=False, force_join="merge")
        engine = VolcanoEngine(catalog)
        plan = engine.plan(sql, planner_config=config)
        measurements.append(_timed(lambda: engine.execute_plan(plan)))
        # HIQUE binary merge joins (teams disabled).
        hique = _serial_hique(catalog)
        prepared = hique.prepare(
            sql, planner_config=config, use_cache=False
        )
        measurements.append(_timed(lambda: hique.execute_prepared(prepared)))
        # HIQUE join teams: merge and hybrid flavours.
        for algorithm in ("merge", "hybrid"):
            config = PlannerConfig(
                enable_join_teams=True, force_join=algorithm,
                force_partitions=64,
            )
            prepared = hique.prepare(
                sql, planner_config=config, use_cache=False
            )
            measurements.append(
                _timed(lambda: hique.execute_prepared(prepared))
            )
        result.add(num_tables, *measurements)
    return result


# -- Figure 7(c): join predicate selectivity -------------------------------------------------------


def fig7c(scale: str | Scale = "small") -> ExperimentResult:
    """Figure 7(c): join time vs matches per outer tuple."""
    sizes = get_scale(scale)
    result = ExperimentResult(
        "Fig 7(c): join predicate selectivity (seconds)",
        [
            "Matches/outer",
            "Merge-Iterators", "Hybrid-Iterators",
            "Merge-HIQUE", "Hybrid-HIQUE",
        ],
    )
    rows = sizes.scan_rows // 4  # output grows as rows × matches
    for matches in sizes.selectivity_levels:
        catalog = Catalog()
        make_join_pair(catalog, rows, rows, matches)
        measurements: list[object] = [matches]
        for engine_kind in ("iterators", "hique"):
            for algorithm in ("merge", "hybrid"):
                config = PlannerConfig(force_join=algorithm)
                if engine_kind == "iterators":
                    engine = VolcanoEngine(catalog)
                    plan = engine.plan(_JOIN_SQL, planner_config=config)
                    measurements.append(
                        _timed(lambda: engine.execute_plan(plan))
                    )
                else:
                    hique = _serial_hique(catalog)
                    prepared = hique.prepare(
                        _JOIN_SQL, planner_config=config, use_cache=False
                    )
                    measurements.append(
                        _timed(lambda: hique.execute_prepared(prepared))
                    )
        result.add(*measurements)
    return result


# -- Figure 7(d): grouping attribute cardinality --------------------------------------------------------


def fig7d(scale: str | Scale = "small") -> ExperimentResult:
    """Figure 7(d): aggregation time vs number of groups."""
    sizes = get_scale(scale)
    result = ExperimentResult(
        "Fig 7(d): grouping cardinality (seconds)",
        [
            "Groups",
            "Sort-Iterators", "Hybrid-Iterators", "Map-Iterators",
            "Sort-HIQUE", "Hybrid-HIQUE", "Map-HIQUE",
        ],
    )
    for groups in sizes.group_levels:
        catalog = Catalog()
        make_group_table(catalog, sizes.agg_rows, groups)
        measurements: list[object] = [groups]
        for engine_kind in ("iterators", "hique"):
            for algorithm in ("sort", "hybrid", "map"):
                config = PlannerConfig(
                    force_agg=algorithm, force_partitions=64
                )
                if engine_kind == "iterators":
                    engine = VolcanoEngine(catalog)
                    plan = engine.plan(_AGG_SQL, planner_config=config)
                    measurements.append(
                        _timed(lambda: engine.execute_plan(plan))
                    )
                else:
                    hique = _serial_hique(catalog)
                    prepared = hique.prepare(
                        _AGG_SQL, planner_config=config, use_cache=False
                    )
                    measurements.append(
                        _timed(lambda: hique.execute_prepared(prepared))
                    )
        result.add(*measurements)
    return result


# -- Figure 8: TPC-H ------------------------------------------------------------------------------------


def fig8(
    scale: str | Scale = "small", db: Database | None = None
) -> ExperimentResult:
    """Figure 8: TPC-H Q1/Q3/Q10 across the four systems."""
    sizes = get_scale(scale)
    if db is None:
        db = make_tpch_database(sizes.tpch_sf)
    result = ExperimentResult(
        f"Fig 8: TPC-H @ SF {sizes.tpch_sf} (seconds)",
        ["System"] + list(QUERIES),
    )
    db.engine("vectorized").preload()
    for system in FIGURE8_SYSTEMS:
        engine = db.engine(system.engine_kind)
        times = []
        for sql in QUERIES.values():
            if system.engine_kind == "hique":
                prepared = engine.prepare(sql, use_cache=False)
                times.append(
                    _timed(lambda: engine.execute_prepared(prepared))
                )
            else:
                times.append(_timed(lambda: engine.execute(sql)))
        result.add(system.label, *times)
    result.note(
        "PostgreSQL*/System X*/MonetDB* are this repo's analogues "
        "(DESIGN.md §2); preparation excluded, as in the paper."
    )
    return result


def make_tpch_database(scale_factor: float) -> Database:
    """A database loaded with TPC-H data at the given scale factor."""
    db = Database(buffer_capacity=65_536)
    generate_tpch(db.catalog, scale_factor=scale_factor)
    return db


# -- Table III: preparation cost ----------------------------------------------------------------------------


def table3(
    scale: str | Scale = "small", db: Database | None = None
) -> ExperimentResult:
    """Table III: query preparation cost for the TPC-H queries."""
    sizes = get_scale(scale)
    if db is None:
        db = make_tpch_database(sizes.tpch_sf)
    result = ExperimentResult(
        "Table III: query preparation cost",
        [
            "Query", "Parse (ms)", "Optimize (ms)", "Generate (ms)",
            "Compile -O0 (ms)", "Compile -O2 (ms)",
            "Source (bytes)", "Compiled (bytes)",
        ],
    )
    engine: HiqueEngine = db.engine("hique")
    for name, sql in QUERIES.items():
        prepared_o0 = engine.prepare(
            sql, name=name, opt_level=OPT_O0, use_cache=False
        )
        prepared_o2 = engine.prepare(
            sql, name=name, opt_level=OPT_O2, use_cache=False
        )
        timings = prepared_o2.timings
        result.add(
            name,
            round(timings.parse_seconds * 1000, 3),
            round(timings.optimize_seconds * 1000, 3),
            round(timings.generate_seconds * 1000, 3),
            round(prepared_o0.timings.compile_seconds * 1000, 3),
            round(timings.compile_seconds * 1000, 3),
            prepared_o2.compiled.source_bytes,
            prepared_o2.compiled.compiled_bytes,
        )
    return result


# -- everything -----------------------------------------------------------------------------------------------


def run_all(scale: str | Scale = "small") -> list[ExperimentResult]:
    """Run the full experiment suite (used by the examples and docs)."""
    results: list[ExperimentResult] = []
    results.extend(fig5(scale))
    results.extend(fig6(scale))
    results.append(table2(scale))
    results.append(fig7a(scale))
    results.append(fig7b(scale))
    results.append(fig7c(scale))
    results.append(fig7d(scale))
    sizes = get_scale(scale)
    db = make_tpch_database(sizes.tpch_sf)
    results.append(fig8(scale, db=db))
    results.append(table3(scale, db=db))
    return results
