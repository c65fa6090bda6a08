"""Process vs thread backend on a CPU-bound in-memory pipeline.

The thread backend's wins come from overlapping page-fetch latency;
once the working set is memory resident, CPython's GIL serializes the
generated code and four thread workers collapse to ~1× on CPU-bound
phases.  The process backend exists precisely for this regime: staging
(tuple decode + partitioning), hybrid join pair evaluation (sort +
merge per coarse partition) and partial aggregation all ship to worker
processes that re-import the generated module, so the pipeline scales
with cores despite the GIL.

Both tables live in memory files — no modeled latency anywhere, so
every second measured is compute plus (for the process backend) task
serialization; with nothing to wait on, the thread side runs the serial
walk.  The intermediate cache is detached, so neither side times a
cache hit.  Rows are asserted byte-identical across the one-worker
serial walk, thread and process executions before any timing counts.

The run writes ``BENCH_multiproc.json`` (a CI artifact) with the raw
seconds and the speedup.  The ≥2× acceptance gate needs real cores:
it is skipped, not failed, on hosts with ``os.cpu_count() < 4``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import RESULTS_DIR, save_bench_json, save_result
from repro.api import Database
from repro.bench.reporting import ExperimentResult
from repro.plan.optimizer import PlannerConfig
from repro.storage import Catalog, Column, INT, Schema, char

WORKERS = 4
ROUNDS = 3
NUM_CUSTOMERS = 2048
ORDERS_PER_CUSTOMER = 40
NUM_REGIONS = 16

#: The shape matters twice over.  The scan pays real CPU per row
#: (decode four fields, multiply, compare, string-compare) while its
#: process payload is raw page *bytes*, which pickle at memcpy speed;
#: the ~3%-selective filter then keeps the row tuples that cross the
#: process boundary afterwards small.  The join runs as blocked
#: nested loops — O(outer × inner) compute over O(outer + inner)
#: payload — which is exactly the compute-dense, pure-data task shape
#: where worker processes leave the GIL behind.
SQL = (
    "SELECT customers.region AS region, "
    "sum(orders.amount * orders.qty) AS revenue, count(*) AS n "
    "FROM orders, customers "
    "WHERE orders.cust = customers.cust "
    "AND orders.amount * orders.qty < 30000 "
    "AND orders.status = 'S3' "
    "GROUP BY customers.region ORDER BY revenue DESC, region"
)


@pytest.fixture(scope="module")
def multiproc_db():
    catalog = Catalog()
    orders = catalog.create_table(
        "orders",
        Schema(
            [
                Column("cust", INT),
                Column("amount", INT),
                Column("qty", INT),
                Column("status", char(8)),
            ]
        ),
    )
    orders.load_rows(
        (
            i % NUM_CUSTOMERS,
            (i * 7919) % 10_000,
            i % 50,
            # Knuth-hash the status so it is uncorrelated with cust —
            # the filtered rows must still cover every region.
            f"S{((i * 2654435761) >> 5) % 8}",
        )
        for i in range(NUM_CUSTOMERS * ORDERS_PER_CUSTOMER)
    )
    customers = catalog.create_table(
        "customers",
        Schema([Column("cust", INT), Column("region", INT)]),
    )
    customers.load_rows(
        (c, c % NUM_REGIONS) for c in range(NUM_CUSTOMERS)
    )
    catalog.analyze()

    db = Database(
        catalog=catalog,
        planner_config=PlannerConfig(force_join="nested"),
        max_workers=WORKERS,
        workers=WORKERS,
    )
    db.set_parallel(morsel_pages=8, min_pages=4, min_rows=512)
    db.engine("hique").parallel.intermediates = None
    yield db
    db.close()


def _timed(statement) -> float:
    started = time.perf_counter()
    statement.execute()
    return time.perf_counter() - started


def _measure(db: Database) -> tuple[float, float, list[tuple]]:
    """One round: (thread seconds, process seconds) plus baseline rows."""
    statement = db.prepare(SQL)

    db.set_parallel(workers=1)
    baseline = statement.execute()  # serial: the correctness reference

    db.set_parallel(workers=WORKERS, executor="thread")
    thread_rows = statement.execute()  # warm the plan + pool
    thread_seconds = _timed(statement)

    db.set_parallel(executor="process")
    process_rows = statement.execute()  # warm pool + worker imports
    process_seconds = _timed(statement)

    stats = db.last_exec_stats("hique")
    assert stats is not None and stats.parallel, stats
    assert stats.backend == "process", stats
    assert any(
        phase.name == "join" and phase.workers > 1 for phase in stats.phases
    ), stats
    # The whole point: rows are byte-identical on every substrate.
    assert thread_rows == process_rows == baseline
    return thread_seconds, process_seconds, baseline


@pytest.fixture(scope="module")
def multiproc_report(multiproc_db):
    rounds = [_measure(multiproc_db) for _ in range(ROUNDS)]
    thread_seconds = min(r[0] for r in rounds)
    process_seconds = min(r[1] for r in rounds)
    best = {
        "thread_seconds": thread_seconds,
        "process_seconds": process_seconds,
        "speedup": thread_seconds / process_seconds,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "orders_rows": NUM_CUSTOMERS * ORDERS_PER_CUSTOMER,
        "customers_rows": NUM_CUSTOMERS,
    }

    result = ExperimentResult(
        name="Multiprocess execution: thread vs process backend "
        f"({WORKERS} workers, CPU-bound in-memory join + aggregation)",
        headers=["mode", "thread s", "process s", "speedup"],
    )
    result.add(
        "hybrid join + group-by + ORDER BY (in-memory)",
        best["thread_seconds"],
        best["process_seconds"],
        best["speedup"],
    )
    result.note(
        f"{best['orders_rows']:,} order rows joined against "
        f"{best['customers_rows']} customers entirely in memory; the "
        f"thread backend is GIL-bound here, the process backend ships "
        f"staging/join-pair/aggregate tasks to {WORKERS} worker "
        f"processes (host has {best['cpu_count']} CPU(s)). Best of "
        f"{ROUNDS} rounds; rows byte-identical across serial, thread "
        f"and process."
    )
    save_result(result)

    save_bench_json("BENCH_multiproc.json", best)
    return best


def test_report_written(multiproc_report):
    path = os.path.join(RESULTS_DIR, "BENCH_multiproc.json")
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["workers"] == WORKERS
    assert payload["speedup"] > 0


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup gate needs >= 4 CPUs (process workers cannot "
    "beat threads without real cores)",
)
def test_process_backend_meets_speedup_gate(multiproc_report):
    """Acceptance: >=2x over the thread backend at 4 workers."""
    assert multiproc_report["speedup"] >= 2.0, multiproc_report
