"""Parallel scan throughput: serialized baseline vs concurrent readers.

PR 1's service serialized every engine execution behind a global lock,
so concurrent sessions queued even when the hardware could overlap
their work.  With the storage spine latched and the lock replaced by a
readers-writer gate, read queries run concurrently — and on
disk-resident data their I/O waits overlap, which is where a
single-interpreter runtime actually banks wall-clock time.

Two measurements over cold, disk-backed tables.  The OS page cache is
dropped between rounds, kernel readahead is disabled
(``DiskFile.advise_random``), and each page fetch additionally carries
a modeled seek latency (``DiskFile(read_latency=...)`` — the disk-level
analogue of the memsim cache model), so every scan waits on storage the
way a latency-bound system does (spinning or networked disks, shared
multi-tenant storage) regardless of how fast the host's SSD happens to
be.  That modeled wait is what makes the acceptance gate deterministic
across machines:

* **inter-query**: one scan statement per shard, executed one at a time
  (serialized baseline) vs submitted together to the 4-worker session
  pool (concurrent);
* **intra-query**: one large table scanned serially vs morsel-parallel
  with 4 workers pulling page ranges from the dispatcher.

Besides the rendered table, the run writes ``BENCH_parallel.json``
(consumed by CI as an artifact) with the raw seconds and speedups.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import RESULTS_DIR, save_bench_json, save_result
from repro.api import Database
from repro.bench.reporting import ExperimentResult
from repro.storage import Catalog, Column, INT, Schema, char
from repro.storage.buffer import BufferManager
from repro.storage.heapfile import DiskFile
from repro.storage.table import Table

NUM_SHARDS = 8
ROWS_PER_SHARD = 100  # 50 pages of 2 wide (~2 KB) tuples each
SESSION_WORKERS = 4
ROUNDS = 5
#: Modeled per-page fetch latency: a seek-bound / networked disk.  Long
#: enough that sleep-timer overshoot is noise, not signal.
READ_LATENCY = 1e-3

#: Wide tuples keep per-page decode cheap relative to the page read, as
#: in the paper's TPC-H tables; the scans decode only the two INTs.
SHARD_SCHEMA = [
    Column("id", INT),
    Column("flag", INT),
    Column("pad", char(2000)),
]


def _shard_rows(shard: int):
    return (
        (i, (i + shard) % 2, f"pad{shard}") for i in range(ROWS_PER_SHARD)
    )


def _drop_caches(db: Database) -> None:
    """Cold-start a round: empty the buffer pool and the OS page cache."""
    db.buffer.evict_all()
    for table in db.catalog.tables():
        if isinstance(table.file, DiskFile):
            table.file.drop_os_cache()


@pytest.fixture(scope="module")
def sharded_db(tmp_path_factory):
    base = tmp_path_factory.mktemp("parallel_scan")
    # The pool holds one round's working set; cold starts come from the
    # explicit cache drops, not from eviction churn inside the timed
    # region (which would serialize under the pool latch).
    buffer = BufferManager(capacity=8192)
    catalog = Catalog(buffer)
    schema = Schema(SHARD_SCHEMA)
    for shard in range(NUM_SHARDS):
        file = DiskFile(
            str(base / f"shard_{shard}.pages"), read_latency=READ_LATENCY
        )
        table = Table(f"shard_{shard}", schema, file=file, buffer=buffer)
        table.load_rows(_shard_rows(shard))
        file.advise_random()
        catalog.register(table)
    big_file = DiskFile(str(base / "big.pages"), read_latency=READ_LATENCY)
    big = Table("big", schema, file=big_file, buffer=buffer)
    for shard in range(NUM_SHARDS):
        big.load_rows(_shard_rows(shard))
    big_file.advise_random()
    catalog.register(big)
    catalog.analyze()
    db = Database(
        catalog=catalog, max_workers=SESSION_WORKERS, workers=SESSION_WORKERS
    )
    db.set_parallel(morsel_pages=16, min_pages=8)
    # Every timed round reads the pages: neither side may be served
    # from the staged-intermediate cache.
    db.engine("hique").parallel.intermediates = None
    yield db
    db.close()


def _expected(shard: int) -> list[tuple]:
    total = sum((i + shard) % 2 for i in range(ROWS_PER_SHARD))
    return [(total, ROWS_PER_SHARD)]


def _measure_inter_query(db: Database) -> tuple[float, float]:
    """(serialized seconds, concurrent seconds) for one cold round each.

    Both rounds run one worker per query so the measurement isolates
    what the *service* layer adds: the serialized round mimics
    PR 1's global execution lock (queries strictly one after another),
    the concurrent round admits all sessions at once.
    """
    db.set_parallel(workers=1)
    statements = [
        db.prepare(
            f"SELECT sum(flag) AS s, count(*) AS n FROM shard_{shard}"
        )
        for shard in range(NUM_SHARDS)
    ]
    for statement in statements:  # plans hot, data cold after the drop
        statement.execute()

    _drop_caches(db)
    started = time.perf_counter()
    for shard, statement in enumerate(statements):
        assert statement.execute() == _expected(shard)
    serialized = time.perf_counter() - started

    _drop_caches(db)
    started = time.perf_counter()
    futures = [
        db.service.submit(
            f"SELECT sum(flag) AS s, count(*) AS n FROM shard_{shard}"
        )
        for shard in range(NUM_SHARDS)
    ]
    for shard, future in enumerate(futures):
        assert future.result(timeout=300) == _expected(shard)
    concurrent = time.perf_counter() - started
    return serialized, concurrent


def _measure_intra_query(db: Database) -> tuple[float, float]:
    """(serial seconds, morsel-parallel seconds) for the big-table scan."""
    sql = "SELECT sum(flag) AS s, count(*) AS n FROM big"
    want = [
        (
            sum(_expected(shard)[0][0] for shard in range(NUM_SHARDS)),
            NUM_SHARDS * ROWS_PER_SHARD,
        )
    ]
    statement = db.prepare(sql)
    statement.execute()

    db.set_parallel(workers=1)
    _drop_caches(db)
    started = time.perf_counter()
    assert statement.execute() == want
    serial = time.perf_counter() - started

    db.set_parallel(workers=SESSION_WORKERS)
    statement.execute()  # re-warm the plan under the new config
    _drop_caches(db)
    started = time.perf_counter()
    assert statement.execute() == want
    parallel = time.perf_counter() - started
    stats = db.last_exec_stats("hique")
    assert stats is not None and stats.parallel, stats
    return serial, parallel


@pytest.fixture(scope="module")
def parallel_report(sharded_db):
    db = sharded_db
    inter_rounds, intra_rounds = [], []
    for _ in range(ROUNDS):
        inter_rounds.append(_measure_inter_query(db))
        intra_rounds.append(_measure_intra_query(db))
    # Each mode keeps its best (minimum) time across rounds, which damps
    # scheduler noise symmetrically instead of crediting the concurrent
    # side for rounds where the serial baseline was penalized.
    serialized = min(r[0] for r in inter_rounds)
    concurrent = min(r[1] for r in inter_rounds)
    morsel_serial = min(r[0] for r in intra_rounds)
    morsel_parallel = min(r[1] for r in intra_rounds)
    best = {
        "serialized_seconds": serialized,
        "concurrent_seconds": concurrent,
        "inter_query_speedup": serialized / concurrent,
        "morsel_serial_seconds": morsel_serial,
        "morsel_parallel_seconds": morsel_parallel,
        "intra_query_speedup": morsel_serial / morsel_parallel,
    }

    result = ExperimentResult(
        name="Parallel scan: serialized baseline vs "
        f"{SESSION_WORKERS}-worker concurrency (cold disk)",
        headers=["mode", "serial s", "parallel s", "speedup"],
    )
    result.add(
        f"inter-query ({NUM_SHARDS} shard scans)",
        best["serialized_seconds"],
        best["concurrent_seconds"],
        best["inter_query_speedup"],
    )
    result.add(
        "intra-query (morsel scan of one table)",
        best["morsel_serial_seconds"],
        best["morsel_parallel_seconds"],
        best["intra_query_speedup"],
    )
    result.note(
        f"{NUM_SHARDS} disk-backed shards × {ROWS_PER_SHARD} wide rows; "
        f"OS page cache and buffer pool dropped before every timed round, "
        f"so concurrent readers overlap genuine read I/O. Best of "
        f"{ROUNDS} rounds."
    )
    save_result(result)

    payload = dict(
        best,
        workers=SESSION_WORKERS,
        shards=NUM_SHARDS,
        rows_per_shard=ROWS_PER_SHARD,
    )
    save_bench_json("BENCH_parallel.json", payload)
    return best


def test_report_written(parallel_report):
    path = os.path.join(RESULTS_DIR, "BENCH_parallel.json")
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["workers"] == SESSION_WORKERS
    assert payload["inter_query_speedup"] > 0


_FEW_CPUS = pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup gates are calibrated for >= 4 CPUs",
)


@_FEW_CPUS
def test_concurrent_reads_beat_serialized_baseline(parallel_report):
    """Acceptance: ≥1.5× concurrent read throughput with 4 workers."""
    assert parallel_report["inter_query_speedup"] >= 1.5, parallel_report


@_FEW_CPUS
def test_morsel_scan_overlaps_io(parallel_report):
    """Intra-query morsels must at least not regress a cold scan."""
    assert parallel_report["intra_query_speedup"] >= 1.0, parallel_report
