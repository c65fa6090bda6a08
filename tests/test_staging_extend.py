"""Append-extended stagings: a staging whose table only grew is
extended with the appended rows, never rebuilt.

The rule under test: a staging banked with its heap end, at a version
no rewrite has followed (:attr:`Table.rewritten`), is brought up to the
current version by running the scan's own generated staging function
over the rows past that end and merging them in heap order.  The
result must equal a fresh staging byte for byte — directory key order
and bucket order included — for every prep kind, and no extension may
happen after UPDATE, DELETE, a bulk load or DDL.  A staging is keyed on
the parameter slots its filters read, so bindings that differ only
elsewhere share it.
"""

from __future__ import annotations

import io
import random
import sys
import threading
from operator import itemgetter

import pytest

from repro import Column, Database, INT
from repro.cli import Shell
from repro.core.executor import build_context
from repro.core.runtime import fine_partition_rows, partition_rows
from repro.parallel.intermediates import IntermediateCache
from repro.parallel.stage import StageAccess, extend_staged, staged_rows
from repro.plan.descriptors import (
    PREP_NONE,
    PREP_PARTITION,
    PREP_PARTITION_SORT,
    PREP_SORT,
    Prep,
    ScanStage,
)
from repro.errors import StorageError
from repro.plan.optimizer import PlannerConfig

ROWS = 9000  # 18 pages: above the cache's default min_pages
JOIN = (
    "SELECT t.a AS a, t.b AS b, u.v AS v FROM t, u "
    "WHERE t.a = u.k AND t.b < ?"
)
GROUPED = "SELECT b, count(*) AS n FROM t WHERE a < ? GROUP BY b"

#: (sql, planner config, engine) → the scans' prep kinds it stages.
PLANS = {
    "merge-sort": (JOIN, PlannerConfig(force_join="merge"), "hique"),
    "hybrid-partition": (JOIN, PlannerConfig(force_join="hybrid"), "hique"),
    "build-fine-probe-none": (JOIN, PlannerConfig(), "hique"),
    "agg-partition-sort": (
        GROUPED, PlannerConfig(force_agg="hybrid"), "hique"
    ),
    "agg-sort": (GROUPED, PlannerConfig(force_agg="sort"), "hique"),
    "o0-merge-sort": (JOIN, PlannerConfig(force_join="merge"), "hique-o0"),
    "o0-build-fine": (JOIN, PlannerConfig(), "hique-o0"),
}
PARAMS = {JOIN: (4,), GROUPED: (2500,)}


def _db() -> Database:
    db = Database()
    db.create_table("t", [Column("a", INT), Column("b", INT)])
    # Descending keys: a sort staging reorders, so a merge is tested.
    db.load_rows("t", [(ROWS - i, i % 7) for i in range(ROWS)])
    db.create_table("u", [Column("k", INT), Column("v", INT)])
    db.load_rows("u", [(i, i % 5) for i in range(ROWS)])
    db.analyze()
    return db


class _Scans:
    """Drive one prepared plan's scans through a private cache."""

    def __init__(self, db: Database, plan: str):
        sql, config, engine = PLANS[plan]
        self.prepared = db.engine(engine).prepare(sql, planner_config=config)
        self.params = PARAMS[sql]
        self.cache = IntermediateCache()
        self.notes: list[str] = []
        self.ops = [
            op
            for op in self.prepared.plan.operators
            if isinstance(op, ScanStage)
        ]

    def _context(self):
        return build_context(
            self.prepared.plan,
            opt_level=self.prepared.compiled.opt_level,
            params=self.params,
        )

    def fresh(self, op: ScanStage):
        """What the scan's staging function builds from all pages."""
        names = self.prepared.generated.function_names
        stage = self.prepared.compiled.namespace[names[op.op_id]]
        return stage(self._context())

    def lookup(self, op: ScanStage):
        access = StageAccess(
            self.prepared, self._context(), self.cache, admit=True
        )
        found = access.lookup(op)
        self.notes.extend(access.notes)
        return found

    def bank(self) -> None:
        """Sight and bank every scan's staging."""
        for op in self.ops:
            assert self.lookup(op).why == "first sighting"
            miss = self.lookup(op)
            assert miss.why == "second sighting"
            miss.bank(self.fresh(op))

    def assert_extended(self) -> None:
        for op in self.ops:
            got = self.lookup(op)
            assert got.why == "extended", op.binding
            fresh = self.fresh(op)
            assert repr(got.value) == repr(fresh), (op.binding, op.prep)
            if isinstance(fresh, dict):
                assert list(got.value) == list(fresh)
            # Banked at the current version: the next lookup hits.
            assert self.lookup(op).why == "cache hit"


def _append(db: Database, rows) -> None:
    for name in ("t", "u"):
        db.table(name).append_rows(rows)


def _one(db):
    _append(db, [(7, 1)])


def _page_boundary(db):
    # Fill each tail page exactly (the next end sits at a full page),
    # then step onto a new page.
    for name in ("t", "u"):
        table = db.table(name)
        page_no, slot = table.heap_end()
        room = table.read_page(page_no).capacity - slot
        table.append_rows([(ROWS + 1 + i, i % 7) for i in range(room)])
        assert table.heap_end() == (page_no, slot + room)


def _nothing_kept(db):
    # b = 6 fails the join query's `t.b < 4`; a >= 2500 fails the
    # grouped query's `a < 2500`.  u's rows all join nothing.
    _append(db, [(5000 + i, 6) for i in range(40)])


def _fails_half_way(db):
    # The third row does not encode: the two before it are stored.
    for name in ("t", "u"):
        table = db.table(name)
        before = table.num_rows
        with pytest.raises(StorageError):
            table.append_rows([(9000, 1), (9001, 2), (9002,), (9003, 3)])
        assert table.num_rows == before + 2
        assert table.rewritten < table.version


@pytest.fixture()
def db():
    db = _db()
    yield db
    db.close()


def test_prep_kinds_cover_every_staging_shape(db):
    # The plans between them stage every prep kind the optimizer builds.
    kinds = {
        (op.prep.kind, op.prep.fine)
        for name in PLANS
        for op in _Scans(db, name).ops
    }
    assert kinds >= {
        (PREP_NONE, False),
        (PREP_SORT, False),
        (PREP_PARTITION, False),
        (PREP_PARTITION, True),
        (PREP_PARTITION_SORT, False),
    }


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize(
    "write", ["one", "several", "page-boundary", "nothing-kept", "half-way"]
)
def test_an_extended_staging_equals_a_fresh_one(db, plan, write):
    scans = _Scans(db, plan)
    scans.bank()
    if write == "one":
        _one(db)
    elif write == "several":
        for i in range(3):
            _append(db, [(8000 + i, i)])
        scans.assert_extended()
        _append(db, [(8100, 2), (8101, 3)])
    elif write == "page-boundary":
        _page_boundary(db)
        scans.assert_extended()
        _one(db)
    elif write == "nothing-kept":
        _nothing_kept(db)
    else:
        _fails_half_way(db)
    scans.assert_extended()
    assert scans.cache.stats().extended >= len(scans.ops)
    # One staging per (table, signature): the extended one replaced it.
    assert scans.cache.stats().entries == len(scans.ops)


def test_appended_rows_no_filter_keeps_add_nothing(db):
    scans = _Scans(db, "merge-sort")
    scans.bank()
    _nothing_kept(db)
    scans.assert_extended()
    assert "table 't': staging extended from version 1 (+0 rows)" in (
        scans.notes
    )


@pytest.mark.parametrize(
    "write",
    [
        lambda t: t.update_rows(lambda row: row[0] == 5, lambda row: row),
        lambda t: t.delete_rows(lambda row: row[0] == 5),
        lambda t: t.load_rows([(9999, 1)]),
        lambda t: t.truncate(),
    ],
    ids=["update", "delete", "load_rows", "truncate"],
)
def test_no_extension_after_a_rewrite(db, write):
    scans = _Scans(db, "merge-sort")
    scans.bank()
    table = db.table("t")
    write(table)
    assert table.rewritten == table.version
    # An append after the rewrite does not make the old staging good.
    table.append_rows([(7, 1)])
    (scan_t,) = [op for op in scans.ops if op.binding == "t"]
    assert scans.lookup(scan_t).why == "second sighting"
    assert scans.cache.stats().extended == 0


def test_extend_staged_matches_restaging_for_every_shape():
    rows = [((i * 37) % 11, i % 3, i) for i in range(200)]
    by_key = itemgetter(0)

    def stage(prep: Prep, part: list):
        part = list(part)
        if prep.kind == PREP_SORT:
            return sorted(part, key=by_key)
        if prep.kind == PREP_NONE:
            return part
        if prep.fine:
            parts = fine_partition_rows(part, 0)
        else:
            parts = partition_rows(part, 0, prep.num_partitions)
        if prep.kind == PREP_PARTITION_SORT:
            buckets = parts.values() if prep.fine else parts
            for bucket in buckets:
                bucket.sort(key=by_key)
        return parts

    preps = [
        Prep(),
        Prep(PREP_SORT, (0,)),
        Prep(PREP_PARTITION, (0,), 4),
        Prep(PREP_PARTITION, (0,), 4, fine=True),
        Prep(PREP_PARTITION_SORT, (0,), 4),
        Prep(PREP_PARTITION_SORT, (0,), 4, fine=True),
    ]
    for prep in preps:
        for cut in (0, 1, 57, 199, 200):
            old = stage(prep, rows[:cut])
            new = stage(prep, rows[cut:])
            snapshot = (repr(old), repr(new))
            merged = extend_staged(prep, old, new)
            assert repr(merged) == repr(stage(prep, rows)), (prep, cut)
            assert staged_rows(merged) == len(rows)
            # Neither input was mutated.
            assert (repr(old), repr(new)) == snapshot


# -- end to end through the database -------------------------------------------


STALE_JOIN = (
    "SELECT t.b AS g, count(u.v) AS n FROM t, u WHERE t.a = u.k GROUP BY t.b"
)


def _bank_through_stale_runs(db: Database) -> None:
    """Bank both stagings of STALE_JOIN: two stale runs after the
    answer banked."""
    db.execute(STALE_JOIN)
    db.execute(STALE_JOIN)
    for key in (-1, -2):
        db.execute(f"INSERT INTO u VALUES ({key}, 1)")
        db.execute(STALE_JOIN)
    assert db.intermediates.stats().entries == 3


def test_an_insert_extends_and_the_rows_stay_right(db):
    _bank_through_stale_runs(db)
    version = db.table("u").version
    db.execute("INSERT INTO u VALUES (3, 1), (4, 2)")
    rows = db.execute(STALE_JOIN)
    stats = db.last_exec_stats()
    assert stats.recycled == "stale"
    assert (
        f"table 'u': staging extended from version {version} (+2 rows)"
        in stats.notes
    )
    assert sorted(rows) == sorted(db.execute(STALE_JOIN, engine="volcano"))
    assert db.intermediates.stats().extended == 1
    other = (
        "SELECT t.b AS g, count(u.v) AS n FROM t, u "
        "WHERE t.a = u.k AND u.v < 9 GROUP BY t.b"
    )
    # Another signature has no staging to extend.
    assert "staging: extended" not in db.explain_analyze(other)
    db.execute("INSERT INTO u VALUES (5, 3)")
    text = db.explain_analyze(STALE_JOIN)
    assert f"staging: extended from version {version + 1} (+1 rows)" in (
        text
    )
    assert "repro_intermediate_cache_extended_total 2" in db.metrics_text()
    shell = Shell(stdout=io.StringIO())
    shell.db.close()
    shell.db = db
    shell.handle(".cache")
    assert "2 extended" in shell.stdout.getvalue()


@pytest.mark.parametrize(
    "write",
    [
        "UPDATE u SET v = 2 WHERE k = 5",
        "DELETE FROM u WHERE k = 5",
        "load_rows",
        "create_index",
    ],
)
def test_no_extension_after_update_delete_load_or_ddl(db, write):
    _bank_through_stale_runs(db)
    if write == "load_rows":
        db.load_rows("u", [(-3, 1)])
    elif write == "create_index":
        db.create_index("u", "k")
    else:
        db.execute(write)
    db.execute("INSERT INTO u VALUES (-4, 1)")
    rows = db.execute(STALE_JOIN)
    assert not any("extended" in note for note in db.last_exec_stats().notes)
    assert db.intermediates.stats().extended == 0
    assert sorted(rows) == sorted(db.execute(STALE_JOIN, engine="volcano"))


def test_bindings_share_a_staging_their_filters_do_not_read(db):
    # u's filter reads ?1; t's filter reads ?0.  Changing ?0 re-stages
    # t only: u's staging is reused across both bindings.
    sql = (
        "SELECT t.b AS g, count(u.v) AS n FROM t, u "
        "WHERE t.a = u.k AND t.b < ? AND u.v < ? GROUP BY t.b"
    )
    statement = db.prepare(sql)
    for params in [(5, 3), (5, 3)]:
        statement.execute(params)
    for key in (-1, -2):
        db.execute(f"INSERT INTO t VALUES ({key}, 1)")
        statement.execute((5, 3))
    # Both stagings banked (t under ?0 = 5, u under ?1 = 3) and the
    # answer.  Another ?0 stages t afresh and reuses u's staging.
    rows = statement.execute((6, 3))
    notes = db.last_exec_stats().notes
    assert any(
        note.startswith("table 'u': staging reused") for note in notes
    ), notes
    assert sorted(rows) == sorted(
        db.execute(sql, params=(6, 3), engine="volcano")
    )


def test_concurrent_readers_extend_while_a_writer_appends(db):
    """Readers race to extend the same stagings between appends.

    Each INSERT adds a pair of ``u`` rows whose values cancel, on one
    key of ``t``: every group's ``sum(u.v)`` never changes, and its
    count grows by two.  A reader's statement sees the tables wholly
    before or after each write, so a torn, doubled or lost extension
    shows as a moved sum.  More threads than cores, with a shortened
    switch interval so a missing lock actually gets interleaved.
    """
    sql = (
        "SELECT t.b AS g, sum(u.v) AS s, count(*) AS n FROM t, u "
        "WHERE t.a = u.k GROUP BY t.b"
    )
    sums = {g: s for g, s, _ in db.execute(sql)}
    errors: list[str] = []
    done = threading.Event()

    def writer() -> None:
        rng = random.Random(11)
        insert = db.prepare("INSERT INTO u VALUES (?, 1), (?, -1)")
        try:
            for _ in range(150):
                key = rng.randrange(1, ROWS)
                insert.execute((key, key))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"writer: {exc!r}")
        finally:
            done.set()

    def reader() -> None:
        try:
            while not done.is_set():
                for g, s, _ in db.execute(sql):
                    if s != sums[g]:
                        errors.append(f"group {g}: sum {s} != {sums[g]}")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"reader: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        done.set()
    assert not errors, errors[:5]
    assert db.intermediates.stats().extended > 0
    assert sorted(db.execute(sql)) == sorted(db.execute(sql, engine="volcano"))
