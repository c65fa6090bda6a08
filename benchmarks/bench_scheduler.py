"""Adaptive (mixed) placement vs forced single-backend placement.

One query, two regimes at once: the ``orders`` scan is latency-bound
(disk-backed pages behind a modeled per-fetch seek), while the nested
join it feeds is CPU-dense (O(outer × inner) compute over in-memory
row chunks).  Neither forced placement can win both —

* ``executor="thread"`` overlaps the page waits (scan fast) but the
  GIL serializes the join's pair evaluation (join slow);
* ``executor="process"`` ships join tasks past the GIL (join fast)
  but must materialize and pickle every page *in the parent* at
  submission time, so the scan's modeled latency is paid serially
  (scan slow);
* ``executor="auto"`` routes per batch through the cost model —
  staged scan on threads, join pair tasks on processes — and should
  beat the best single-backend run on wall-clock.

The forced thread and process rounds run first and double as
calibration: every batch they execute reports its measured latency
into the executor's compute-per-byte model, so the adaptive round
routes on observed rates, not static seeds.  Rows are asserted
byte-identical across the one-worker serial walk and all three
placements before any timing counts, and the adaptive run must report
``backend == "mixed"``.  The intermediate cache is detached, so every
timed run stages its scan from the cold pages.

The run writes ``BENCH_scheduler.json`` (a CI artifact) with the raw
seconds and the mixed-over-best-single-backend speedup.  The ≥1.2× acceptance gate
needs real cores *and* real fetch overlap: it is skipped, not failed,
on hosts with ``os.cpu_count() < 4``.
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
from repro.storage.buffer import BufferManager
from repro.storage.heapfile import DiskFile
from repro.storage.table import Table

WORKERS = 4
ROUNDS = 3
NUM_CUSTOMERS = 1024
ORDERS_PER_CUSTOMER = 8
NUM_REGIONS = 16
#: Modeled per-page fetch latency: a seek-bound / networked disk.
READ_LATENCY = 1e-3

#: Pads the orders tuples so the scan is page-rich (hundreds of
#: modeled fetches) while the filtered rows crossing into the join
#: stay narrow.
PAD = char(300)

#: ~30%-selective filter keeps the nested join's outer side large
#: enough that pair evaluation dominates thread-placement wall-clock.
SQL = (
    "SELECT customers.region AS region, "
    "sum(orders.amount * orders.qty) AS revenue, count(*) AS n "
    "FROM orders, customers "
    "WHERE orders.cust = customers.cust "
    "AND orders.amount * orders.qty < 150000 "
    "GROUP BY customers.region ORDER BY revenue DESC, region"
)


def _drop_caches(db: Database) -> None:
    """Cold-start a timed run: empty buffer pool and OS page cache."""
    db.buffer.evict_all()
    for table in db.catalog.tables():
        if isinstance(table.file, DiskFile):
            table.file.drop_os_cache()


@pytest.fixture(scope="module")
def scheduler_db(tmp_path_factory):
    base = tmp_path_factory.mktemp("scheduler")
    buffer = BufferManager(capacity=8192)
    catalog = Catalog(buffer)

    orders_schema = Schema(
        [
            Column("cust", INT),
            Column("amount", INT),
            Column("qty", INT),
            Column("pad", PAD),
        ]
    )
    file = DiskFile(str(base / "orders.pages"), read_latency=READ_LATENCY)
    orders = Table("orders", orders_schema, file=file, buffer=buffer)
    orders.load_rows(
        (
            i % NUM_CUSTOMERS,
            (i * 7919) % 10_000,
            i % 50,
            f"o{i}",
        )
        for i in range(NUM_CUSTOMERS * ORDERS_PER_CUSTOMER)
    )
    file.advise_random()
    catalog.register(orders)

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


def _measure(db: Database) -> tuple[float, float, float]:
    """One round: (thread s, process s, auto s), cold per timed run.

    The forced rounds run first on purpose: every batch they execute
    feeds its measured latency into the shared cost model, so the
    adaptive round chooses on calibrated rates.
    """
    statement = db.prepare(SQL)

    db.set_parallel(workers=1)
    baseline = statement.execute()  # serial: the correctness reference

    db.set_parallel(workers=WORKERS, executor="thread")
    thread_rows = statement.execute()  # warm plan + pool (+ calibrate)
    _drop_caches(db)
    thread_seconds = _timed(statement)

    db.set_parallel(executor="process")
    process_rows = statement.execute()  # warm pool + worker imports
    _drop_caches(db)
    process_seconds = _timed(statement)

    db.set_parallel(executor="auto")
    auto_rows = statement.execute()
    _drop_caches(db)
    auto_seconds = _timed(statement)

    stats = db.last_exec_stats("hique")
    assert stats is not None and stats.parallel, stats
    assert stats.placement == "auto", stats
    if (os.cpu_count() or 1) >= 4:
        # The whole point: the chooser split the query across backends
        # — staged scan on threads, CPU-dense join on processes.  On
        # starved hosts the calibrated answer is all-thread (processes
        # cannot pay for themselves without cores), so this only holds
        # where the speedup gate runs.
        assert stats.backend == "mixed", stats
    # Rows are byte-identical under every placement.
    assert thread_rows == process_rows == auto_rows == baseline
    return thread_seconds, process_seconds, auto_seconds


@pytest.fixture(scope="module")
def scheduler_report(scheduler_db):
    rounds = [_measure(scheduler_db) for _ in range(ROUNDS)]
    thread_s = min(r[0] for r in rounds)
    process_s = min(r[1] for r in rounds)
    auto_s = min(r[2] for r in rounds)
    best_single = min(thread_s, process_s)
    pages = sum(t.num_pages for t in scheduler_db.catalog.tables())
    best = {
        "thread_seconds": thread_s,
        "process_seconds": process_s,
        "auto_seconds": auto_s,
        "best_single_seconds": best_single,
        "mixed_speedup": best_single / auto_s,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "pages": pages,
        "orders_rows": NUM_CUSTOMERS * ORDERS_PER_CUSTOMER,
        "customers_rows": NUM_CUSTOMERS,
    }

    result = ExperimentResult(
        name="Adaptive placement: mixed thread/process vs forced "
        f"single-backend ({WORKERS} workers, disk scan + nested join)",
        headers=[
            "placement", "thread s", "process s", "auto s", "speedup"
        ],
    )
    result.add(
        "stage=thread ∥ join=process (cost-model routed)",
        best["thread_seconds"],
        best["process_seconds"],
        best["auto_seconds"],
        best["mixed_speedup"],
    )
    result.note(
        f"{pages} pages of disk-backed orders behind "
        f"{READ_LATENCY * 1000:.0f} ms modeled page latency feed a "
        f"CPU-dense nested join. Forced thread placement overlaps the "
        f"fetches but serializes the join on the GIL; forced process "
        f"placement scales the join but pays the page latency serially "
        f"in the parent at submission. The adaptive chooser routes the "
        f"scan to threads and the join to processes inside one query. "
        f"Buffer pool and OS cache dropped before every timed run; "
        f"best of {ROUNDS} rounds; rows byte-identical across serial "
        f"and all three placements; speedup = best single-backend / "
        f"auto."
    )
    save_result(result)

    save_bench_json("BENCH_scheduler.json", best)
    return best


def test_report_written(scheduler_report):
    path = os.path.join(RESULTS_DIR, "BENCH_scheduler.json")
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["workers"] == WORKERS
    assert payload["mixed_speedup"] > 0
    assert payload["cpu_count"] == os.cpu_count()


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="mixed-placement gate needs >= 4 CPUs (neither the fetch "
    "overlap nor the process join can bank wall-clock time without "
    "real concurrency)",
)
def test_mixed_meets_speedup_gate(scheduler_report):
    """Acceptance: adaptive ≥1.2× over the best single-backend run."""
    assert scheduler_report["mixed_speedup"] >= 1.2, scheduler_report
