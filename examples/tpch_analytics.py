"""TPC-H analytics across the four comparison systems (mini Figure 8).

Generates a small TPC-H instance, then runs Q1, Q3 and Q10 on the
PostgreSQL/System X/MonetDB analogues and on HIQUE, reporting response
times with preparation excluded (as in the paper).

Run with::

    python examples/tpch_analytics.py [scale_factor]
"""

import sys
import time

from repro.bench.experiments import make_tpch_database
from repro.bench.systems import FIGURE8_SYSTEMS
from repro.bench.tpch import QUERIES


def main(scale_factor: float = 0.005) -> None:
    print(f"Generating TPC-H at scale factor {scale_factor}...")
    db = make_tpch_database(scale_factor)
    lineitem_rows = db.table("lineitem").num_rows
    print(f"lineitem: {lineitem_rows:,} rows\n")
    db.engine("vectorized").preload()

    header = f"{'System':14s}" + "".join(f"{q:>12s}" for q in QUERIES)
    print(header)
    print("-" * len(header))
    baseline: dict[str, float] = {}
    for system in FIGURE8_SYSTEMS:
        engine = db.engine(system.engine_kind)
        cells = []
        for name, sql in QUERIES.items():
            if system.engine_kind == "hique":
                prepared = engine.prepare(sql)
                started = time.perf_counter()
                engine.execute_prepared(prepared)
                elapsed = time.perf_counter() - started
            else:
                started = time.perf_counter()
                engine.execute(sql)
                elapsed = time.perf_counter() - started
            baseline.setdefault(name, elapsed)
            cells.append(f"{elapsed:11.3f}s")
        print(f"{system.label:14s}" + "".join(cells))

    print()
    hique = db.engine("hique")
    for name, sql in QUERIES.items():
        prepared = hique.prepare(sql)
        started = time.perf_counter()
        hique.execute_prepared(prepared)
        elapsed = time.perf_counter() - started
        factor = baseline[name] / elapsed if elapsed else float("inf")
        print(
            f"{name}: HIQUE is {factor:5.1f}x faster than the generic "
            f"iterator engine"
        )

    print()
    print("Sample of Q1 output:")
    for row in db.execute(QUERIES["Q1"]):
        flag, status, *aggregates = row
        print(f"  {flag} {status}  count={aggregates[-1]:,}")


if __name__ == "__main__":
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.005
    main(sf)
