"""Cold-storage trial of TPC-H plans over latency-bound disk files.

Generates a TPC-H instance, copies every table onto a ``DiskFile``
with a modelled per-page read latency, and times each plan cold — the
buffer pool emptied and the OS page cache dropped before every run —
on the one execution path: the serial walk, whose page waits the
buffer pool's sequential read-ahead overlaps.  Plans are compiled and
run once warm (every page resident) before timing starts, the
intermediate cache is not attached (every run reads its pages), and
every cold run must return exactly the warm run's rows; the script
exits non-zero if one does not.

Run from the repository root::

    PYTHONPATH=src python benchmarks/cold_trial.py \\
        --scale 0.005 --latency 1e-3 --rounds 5

``--joins default,hash,hybrid`` adds the join plans with a forced join
algorithm.  The last line of output is a JSON object with the samples,
median and quartiles, in milliseconds, of every plan.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.bench.tpch import QUERIES, generate_tpch
from repro.core.engine import HiqueEngine
from repro.plan.optimizer import PlannerConfig
from repro.storage import Catalog
from repro.storage.buffer import BufferManager
from repro.storage.heapfile import DiskFile
from repro.storage.table import Table

#: The trial's plans: TPC-H Q1 (a scan → aggregate → sort chain), Q3
#: and Q10, and a two-table join feeding a group-by.
PLANS = dict(
    QUERIES,
    join=(
        "SELECT o_orderpriority, count(*) AS n FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey GROUP BY o_orderpriority "
        "ORDER BY o_orderpriority"
    ),
)

#: ``--joins`` choices: the optimizer's own plans, or a forced join.
JOINS = {
    "default": None,
    "hash": PlannerConfig(force_join="hash"),
    "hybrid": PlannerConfig(force_join="hybrid"),
}


def cold_catalog(
    scale: float, latency: float, directory: Path
) -> tuple[Catalog, list[DiskFile]]:
    """A TPC-H catalogue whose tables live on latency-bound disk files."""
    source = Catalog()
    generate_tpch(source, scale_factor=scale)
    buffer = BufferManager(capacity=65_536)
    catalog = Catalog(buffer)
    files = []
    for table in source.tables():
        file = DiskFile(
            str(directory / f"{table.name}.pages"), read_latency=latency
        )
        copy = Table(table.name, table.schema, file=file, buffer=buffer)
        copy.load_rows(table.all_rows())
        catalog.register(copy)
        files.append(file)
    catalog.analyze()
    return catalog, files


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median_ms": round(median * 1000, 1),
        "q1_ms": round(q1 * 1000, 1),
        "q3_ms": round(q3 * 1000, 1),
        "samples_ms": [round(sample * 1000, 1) for sample in samples],
    }


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.005)
    parser.add_argument("--latency", type=float, default=1e-3)
    parser.add_argument("--rounds", type=int, default=5)  # at least 2
    parser.add_argument("--joins", default="default")
    args = parser.parse_args(argv)

    cases = [
        (f"{plan}/{join}", PLANS[plan], JOINS[join])
        for join in args.joins.split(",")
        for plan in PLANS
        if join == "default" or plan != "Q1"  # Q1 joins nothing
    ]
    times = {case: [] for case, _, _ in cases}
    with tempfile.TemporaryDirectory() as directory:
        catalog, files = cold_catalog(
            args.scale, args.latency, Path(directory)
        )
        engine = HiqueEngine(catalog)
        try:
            # Compile every plan once; its warm rows are the oracle.
            prepared = {
                case: engine.prepare(sql, planner_config=config)
                for case, sql, config in cases
            }
            warm = {
                case: repr(engine.execute_prepared(query))
                for case, query in prepared.items()
            }
            for _ in range(args.rounds):
                for case, _, _ in cases:
                    catalog.buffer.evict_all()
                    for file in files:
                        file.drop_os_cache()
                    started = time.perf_counter()
                    rows = engine.execute_prepared(prepared[case])
                    times[case].append(time.perf_counter() - started)
                    if repr(rows) != warm[case]:
                        raise SystemExit(f"{case}: cold rows differ")
        finally:
            engine.close()
            catalog.buffer.close()
            for file in files:
                file.close()

    result = {
        "scale": args.scale,
        "latency": args.latency,
        "rounds": args.rounds,
        "plans": {case: quartiles(times[case]) for case, _, _ in cases},
    }
    for case, measured in result["plans"].items():
        print(f"{case:16s} {measured['median_ms']:8.1f} ms", file=sys.stderr)
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
