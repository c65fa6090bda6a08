"""Concurrency stress tests: N threads × M mixed queries, all engines.

The contract under test: with the storage spine latched and the query
service admitting concurrent readers, any interleaving of sessions
produces rows identical to serial execution, and the buffer pool's
invariants hold afterwards (every pin released, no pinned page was ever
evicted — eviction of a pinned frame raises ``BufferPoolError`` inside
the pool, so a clean run is itself the invariant check).
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro import Database
from repro.api import ENGINE_KINDS
from repro.parallel import ParallelConfig
from repro.plan.optimizer import PlannerConfig
from repro.storage import Catalog, Column, DOUBLE, INT, Schema, char
from repro.storage.buffer import BufferManager
from repro.storage.heapfile import DiskFile
from repro.storage.table import Table

N_THREADS = 6
ROUNDS = 4

#: Mixed point/aggregate/join workload; every statement is served by
#: all six engine configurations.  Float aggregates use int arguments
#: so results are exact and comparable with ``==`` across any execution
#: order; join and ORDER BY keys include DOUBLE columns, which stay
#: byte-identical under parallelism because staging, joins and sorts
#: compare floats without reassociating additions (the workload runs
#: with the default ``allow_float_reorder=False``).
WORKLOAD = [
    ("SELECT id, balance FROM accounts WHERE id = ?", lambda rng: (rng.randrange(512),)),
    ("SELECT id, region FROM accounts WHERE id = ?", lambda rng: (rng.randrange(512),)),
    ("SELECT count(*) AS n FROM accounts WHERE region = ?", lambda rng: (rng.randrange(8),)),
    (
        "SELECT region, count(*) AS n, sum(flag) AS s, min(id) AS mn, "
        "max(id) AS mx FROM accounts GROUP BY region",
        lambda rng: None,
    ),
    (
        "SELECT region, count(*) AS n FROM accounts WHERE flag = ? "
        "GROUP BY region ORDER BY n DESC, region",
        lambda rng: (rng.randrange(2),),
    ),
    ("SELECT sum(id) AS s, count(*) AS n FROM accounts", lambda rng: None),
    # Join + ORDER BY: INT join key, fully determined sort keys.
    (
        "SELECT accounts.id AS id, branches.name AS bname "
        "FROM accounts, branches "
        "WHERE accounts.region = branches.region AND accounts.flag = ? "
        "ORDER BY id, bname",
        lambda rng: (rng.randrange(2),),
    ),
    # Join on a DOUBLE key, ORDER BY a DOUBLE key descending.
    (
        "SELECT accounts.id AS id, accounts.balance AS bal, "
        "tiers.tier AS tier FROM accounts, tiers "
        "WHERE accounts.scale = tiers.scale "
        "ORDER BY bal DESC, id, tier",
        lambda rng: None,
    ),
    # Join feeding grouped aggregation and a final sort.
    (
        "SELECT branches.name AS bname, count(*) AS n, "
        "sum(accounts.flag) AS s FROM accounts, branches "
        "WHERE accounts.region = branches.region "
        "GROUP BY branches.name ORDER BY n DESC, bname",
        lambda rng: None,
    ),
]


def _build_db(**kwargs) -> Database:
    rng = random.Random(99)
    db = Database(**kwargs)
    db.create_table(
        "accounts",
        [
            Column("id", INT),
            Column("balance", DOUBLE),
            Column("region", INT),
            Column("flag", INT),
            Column("tag", char(8)),
            Column("scale", DOUBLE),
        ],
    )
    db.load_rows(
        "accounts",
        [
            (
                i,
                float(rng.randrange(100_000)) / 100,
                i % 8,
                i % 2,
                f"t{i % 11}",
                float(i % 4) / 2,  # exact binary fractions: DOUBLE keys
            )
            for i in range(512)
        ],
    )
    db.create_table(
        "branches",
        [Column("region", INT), Column("name", char(8))],
    )
    db.load_rows(
        "branches", [(j % 8, f"b{j:02d}") for j in range(24)]
    )
    db.create_table(
        "tiers", [Column("scale", DOUBLE), Column("tier", INT)]
    )
    db.load_rows(
        "tiers", [(float(j % 4) / 2, j) for j in range(8)]
    )
    db.analyze()
    return db


@pytest.fixture(scope="module")
def stress_db() -> Database:
    db = _build_db(max_workers=N_THREADS, workers=4)
    db.set_parallel(min_pages=2, morsel_pages=2, min_rows=64)
    yield db
    db.close()


@pytest.fixture(scope="module")
def expected(stress_db):
    """Serial reference results per (engine, statement) pair."""
    serial = _build_db(workers=1, max_workers=1)
    results = {}
    for kind in ENGINE_KINDS:
        for index, (sql, make_params) in enumerate(WORKLOAD):
            rng = random.Random(index)
            params = make_params(rng)
            results[(kind, index)] = serial.execute(
                sql, engine=kind, params=params
            )
    serial.close()
    return results


def _run_threads(target, count=N_THREADS, timeout=120):
    errors: list[BaseException] = []

    def guarded(k):
        try:
            target(k)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(k,)) for k in range(count)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        assert not t.is_alive(), "stress thread wedged"
    if errors:
        raise errors[0]


def test_mixed_queries_identical_to_serial_all_engines(stress_db, expected):
    """Six engines × N threads × M statements: rows match serial runs."""

    def session(thread_id: int):
        rng = random.Random(thread_id)
        for _ in range(ROUNDS):
            for kind in ENGINE_KINDS:
                index = rng.randrange(len(WORKLOAD))
                sql, make_params = WORKLOAD[index]
                params = make_params(random.Random(index))
                rows = stress_db.execute(sql, engine=kind, params=params)
                assert rows == expected[(kind, index)], (kind, sql)

    _run_threads(session)
    assert stress_db.buffer.num_pinned == 0


def test_service_submit_concurrent_sessions(stress_db, expected):
    """The pooled front-end agrees with serial results under load."""
    futures = []
    for k in range(N_THREADS * 4):
        index = k % len(WORKLOAD)
        sql, make_params = WORKLOAD[index]
        params = make_params(random.Random(index))
        futures.append(
            (index, stress_db.service.submit(sql, params=params))
        )
    for index, future in futures:
        assert future.result(timeout=60) == expected[("hique", index)]
    stats = stress_db.service.stats()
    assert stats.pending == 0
    assert stats.failed == 0
    assert stress_db.buffer.num_pinned == 0


def test_tiny_buffer_pool_under_concurrency(expected):
    """Evictions under concurrent scans: correctness and invariants.

    A pool far smaller than the table forces constant miss/evict
    traffic from every thread; a pinned-page eviction would raise
    ``BufferPoolError`` and fail the run.
    """
    db = _build_db(buffer_capacity=2, workers=4)
    db.set_parallel(min_pages=2, morsel_pages=2, min_rows=64)
    try:

        def session(thread_id: int):
            rng = random.Random(thread_id)
            for _ in range(ROUNDS):
                index = rng.randrange(len(WORKLOAD))
                sql, make_params = WORKLOAD[index]
                params = make_params(random.Random(index))
                rows = db.execute(sql, params=params)
                assert rows == expected[("hique", index)]

        _run_threads(session)
        assert db.buffer.num_pinned == 0
        assert db.buffer.num_resident <= 2
        assert db.buffer.stats.evictions > 0
    finally:
        db.close()


def test_concurrent_scans_over_disk_file(tmp_path):
    """Positioned reads: many threads scanning one DiskFile agree."""
    schema = Schema([Column("a", INT), Column("b", INT)])
    buffer = BufferManager(capacity=16)
    file = DiskFile(str(tmp_path / "t.pages"))
    catalog = Catalog(buffer)
    table = Table("t", schema, file=file, buffer=buffer)
    table.load_rows([(i, i * 3) for i in range(50_000)])
    catalog.register(table)
    catalog.analyze()
    db = Database(catalog=catalog, workers=4)
    db.set_parallel(min_pages=2)
    try:
        want = sum(i * 3 for i in range(50_000))

        def session(thread_id: int):
            for _ in range(ROUNDS):
                rows = db.execute("SELECT sum(b) AS s FROM t")
                assert rows == [(want,)]

        _run_threads(session)
        assert buffer.num_pinned == 0
    finally:
        db.close()


def test_ddl_excludes_readers_without_breaking_them(stress_db, expected):
    """analyze() (a writer) interleaves safely with running readers."""
    stop = threading.Event()

    def churn_statistics():
        while not stop.is_set():
            stress_db.analyze("accounts")

    churner = threading.Thread(target=churn_statistics)
    churner.start()
    try:

        def session(thread_id: int):
            rng = random.Random(thread_id)
            for _ in range(ROUNDS):
                index = rng.randrange(len(WORKLOAD))
                sql, make_params = WORKLOAD[index]
                params = make_params(random.Random(index))
                rows = stress_db.execute(sql, params=params)
                assert rows == expected[("hique", index)]

        _run_threads(session)
    finally:
        stop.set()
        churner.join(timeout=30)
    assert stress_db.buffer.num_pinned == 0


def test_readers_see_consistent_snapshots_during_writes():
    """Concurrent readers interleaving with multi-row DML only ever
    observe a pre- or post-statement snapshot, never a partial write.

    The writer alternates one multi-row INSERT with one DELETE of the
    same rows, each a single statement under the catalog's write gate;
    any reader-visible count other than ``base`` or ``base + batch``
    would mean a statement's effects leaked mid-flight.
    """
    db = _build_db(workers=4)
    db.set_parallel(min_pages=2, morsel_pages=2, min_rows=64)
    batch = 16
    base = db.table("accounts").num_rows
    stop = threading.Event()

    def writer():
        values = ", ".join(
            f"({10_000 + j}, 1.0, 0, 0, 'wx', 0.0)" for j in range(batch)
        )
        while not stop.is_set():
            db.execute(f"INSERT INTO accounts VALUES {values}")
            db.execute("DELETE FROM accounts WHERE id >= 10000")

    churner = threading.Thread(target=writer)
    churner.start()
    try:

        def session(thread_id: int):
            rng = random.Random(thread_id)
            for _ in range(ROUNDS * 3):
                kind = ENGINE_KINDS[rng.randrange(len(ENGINE_KINDS))]
                rows = db.execute(
                    "SELECT count(*) AS n FROM accounts", engine=kind
                )
                assert rows[0][0] in (base, base + batch), (kind, rows)

        _run_threads(session)
    finally:
        stop.set()
        churner.join(timeout=60)
        assert not churner.is_alive(), "writer wedged"
    # The final DELETE restores the base row count exactly.
    assert db.execute("SELECT count(*) AS n FROM accounts") == [(base,)]
    assert db.buffer.num_pinned == 0
    db.close()


def test_readers_during_indexed_writes():
    """Point and range readers against a table whose rows are being
    updated and deleted *through the index, in place*.

    Pairs of rows ``(2j, 2j+1)`` always carry balances summing to
    zero: a writer either moves value between the two rows of one
    pair (one UPDATE of both, located by an index range) or deletes a
    whole pair (one DELETE).  A reader's statement sees the table
    wholly before or after each write, so every probed pair is either
    complete and balanced or gone — a torn in-place overwrite, a
    half-moved tail row or a stale rid would break that.  More
    threads than cores, with a shortened switch interval so a missing
    latch actually gets interleaved.
    """
    pairs = 1_500
    db = Database(workers=2, max_workers=8)
    db.create_table(
        "acct", [Column("id", INT), Column("pair", INT), Column("bal", INT)]
    )
    db.load_rows(
        "acct",
        [(i, i // 2, 100 if i % 2 else -100) for i in range(2 * pairs)],
    )
    db.create_index("acct", "id")
    db.analyze()
    errors: list[str] = []
    done = threading.Event()

    def writer() -> None:
        rng = random.Random(5)
        try:
            shift = db.prepare(
                "UPDATE acct SET bal = bal * -1 WHERE id >= ? AND id < ?"
            )
            drop = db.prepare("DELETE FROM acct WHERE id >= ? AND id < ?")
            for step in range(600):
                j = rng.randrange(pairs)
                statement = drop if step % 4 == 3 else shift
                statement.execute((2 * j, 2 * j + 2))
            # Whatever survived is intact and indexed.
            db.table("acct").check_indexes()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"writer: {exc!r}")
        finally:
            done.set()

    def reader(seed: int) -> None:
        rng = random.Random(seed)
        point = db.prepare("SELECT pair, bal FROM acct WHERE id = ?")
        span = db.prepare(
            "SELECT count(*) AS n, sum(bal) AS s FROM acct "
            "WHERE id >= ? AND id < ?"
        )
        try:
            while not done.is_set():
                j = rng.randrange(pairs)
                rows = point.execute((2 * j,))
                if rows and (rows[0][0] != j or abs(rows[0][1]) != 100):
                    errors.append(f"point {j}: {rows}")
                width = rng.randrange(1, 20)
                ((n, total),) = span.execute((2 * j, 2 * (j + width)))
                if n % 2 or (n and total != 0):
                    errors.append(f"span {j}+{width}: n={n} sum={total}")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"reader {seed}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        done.set()
    try:
        assert not errors, errors[:5]
        table = db.table("acct")
        # Reads went through the index; writes never rebuilt it wholesale.
        assert table.index_probes > 600
        assert db.execute("SELECT sum(bal) AS s FROM acct") == [(0,)]
    finally:
        db.close()


def test_parallel_config_is_visible_in_stats(stress_db):
    stress_db.execute(
        "SELECT region, count(*) AS n FROM accounts GROUP BY region"
    )
    stats = stress_db.last_exec_stats("hique")
    assert stats is not None
    if stats.parallel:
        # ``workers`` reports threads actually used, capped by morsels.
        assert 1 <= stats.workers <= stress_db.parallel_config.workers
        assert stats.morsels >= 2


def test_join_workload_actually_parallelizes(expected, scheduled):
    """Planned as merge joins, the join + ORDER BY statements exercise
    the join phase for both code-generating engines, with rows
    byte-identical to serial.  (The default build/probe hash join has
    no pair split: it probes on the calling thread.)"""
    join_indexes = [
        index for index, (sql, _) in enumerate(WORKLOAD) if "branches" in sql or "tiers" in sql
    ]
    assert join_indexes
    db = _build_db(
        max_workers=N_THREADS, workers=4,
        planner_config=PlannerConfig(force_join="merge"),
    )
    db.set_parallel(min_pages=2, morsel_pages=2, min_rows=64)
    try:
        for kind in ("hique", "hique-o0"):
            saw_parallel_join = False
            for index in join_indexes:
                sql, make_params = WORKLOAD[index]
                params = make_params(random.Random(index))
                rows = db.execute(sql, engine=kind, params=params)
                assert rows == expected[(kind, index)], (kind, sql)
                stats = db.last_exec_stats(kind)
                if stats is not None and stats.parallel and any(
                    phase.name == "join" and phase.workers > 1
                    for phase in stats.phases
                ):
                    saw_parallel_join = True
            assert saw_parallel_join, kind
    finally:
        db.close()
