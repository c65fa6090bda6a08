"""Join teams: multi-way joins in a single nested-loop block (Fig 7b).

Builds a star-ish workload (one fact table, several dimension tables all
joined on one key), then compares:

* binary merge joins through the iterator engine,
* binary merge joins generated by HIQUE (teams disabled),
* a HIQUE join team (one deeply nested generated loop block, no
  intermediate materialisation).

Run with::

    python examples/join_teams.py
"""

import time

from repro.bench.synth import make_team_tables
from repro.core.engine import HiqueEngine
from repro.engines.volcano import VolcanoEngine
from repro.plan.optimizer import PlannerConfig
from repro.storage.catalog import Catalog


def main() -> None:
    catalog = Catalog()
    tables = make_team_tables(
        catalog, big_rows=40_000, small_rows=4_000, num_small=4
    )
    dims = [t.name for t in tables[1:]]
    select = ", ".join(["fact.f1"] + [f"{d}.f1" for d in dims])
    where = " AND ".join(f"fact.k = {d}.k" for d in dims)
    sql = f"SELECT {select} FROM fact, {', '.join(dims)} WHERE {where}"
    print(f"{len(tables)}-way join, output cardinality "
          f"{tables[0].num_rows:,} rows\n")

    binary_config = PlannerConfig(enable_join_teams=False,
                                  force_join="merge")
    team_config = PlannerConfig(enable_join_teams=True, force_join="merge")

    volcano = VolcanoEngine(catalog)
    plan = volcano.plan(sql, planner_config=binary_config)
    started = time.perf_counter()
    expected = volcano.execute_plan(plan)
    iterator_time = time.perf_counter() - started

    hique = HiqueEngine(catalog)
    results = {}
    for label, config in (
        ("HIQUE binary merge joins", binary_config),
        ("HIQUE join team", team_config),
    ):
        prepared = hique.prepare(sql, planner_config=config)
        started = time.perf_counter()
        rows = hique.execute_prepared(prepared)
        results[label] = (time.perf_counter() - started, rows)

    print(f"{'Iterator binary merge joins':32s} {iterator_time:8.3f}s")
    for label, (elapsed, rows) in results.items():
        assert sorted(rows) == sorted(expected)
        factor = iterator_time / elapsed
        print(f"{label:32s} {elapsed:8.3f}s  ({factor:4.1f}x vs iterators)")

    team_source = hique.prepare(
        sql, planner_config=team_config
    ).generated.source
    print("\nThe join team compiles to one nested loop block:")
    in_team = False
    for line in team_source.splitlines():
        if line.startswith("def team_join"):
            in_team = True
        elif in_team and line.startswith("def "):
            break
        if in_team:
            print("   ", line)


if __name__ == "__main__":
    main()
