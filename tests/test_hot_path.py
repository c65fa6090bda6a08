"""The statement hot path: what a recycled answer pays around it.

An answer hit recalls rows computed before; around that recall the
service resolves the text, looks the plan up, checks its row-count
dependencies and parameter types, and records the workload insights.
With tracing off none of that may enter a generator context manager,
and while no table's version moved the dependency check may not look
a table up in the catalogue.  The checks themselves must still fire:
a plan is re-optimized once a table doubles, a handle re-prepares
after DROP + CREATE, every row-count change moves a version, and the
parameter check and the insights digests report what they always did.
"""

from __future__ import annotations

import contextlib
import datetime

import pytest

from repro import DATE, INT, Column, Database
from repro.errors import ServiceError
from repro.storage import KeyRange, Schema, char
from repro.storage.catalog import Catalog
from repro.storage.table import Table

COLUMNS = [Column("a", INT), Column("b", INT), Column("c", char(8)),
           Column("d", DATE)]
ROWS = [(i, i % 7, f"c{i % 5}", 8000 + i % 300) for i in range(3000)]

READS = [
    "SELECT a, b FROM t WHERE b = 3 AND a < 40",
    "SELECT b, count(*) AS n FROM t GROUP BY b ORDER BY b",
    "SELECT t.a, u.v FROM t, u WHERE t.a = u.k AND u.v < 30",
]


@pytest.fixture
def db():
    database = Database(trace=False)
    database.create_table("t", COLUMNS)
    database.load_rows("t", ROWS)
    database.create_table("u", [Column("k", INT), Column("v", INT)])
    database.load_rows("u", [(i, i * 2) for i in range(600)])
    database.analyze()
    yield database
    database.close()


@pytest.fixture
def counted(monkeypatch):
    """Counts generator context managers entered and catalogue lookups."""
    counts = {"generator scopes": 0, "catalog lookups": 0}
    enter = contextlib._GeneratorContextManager.__enter__
    table = Catalog.table

    def counting_enter(self):
        counts["generator scopes"] += 1
        return enter(self)

    def counting_table(self, name):
        counts["catalog lookups"] += 1
        return table(self, name)

    monkeypatch.setattr(
        contextlib._GeneratorContextManager, "__enter__", counting_enter
    )
    monkeypatch.setattr(Catalog, "table", counting_table)
    return counts


def _plan(db, handle):
    return db.service.cache.peek(handle.cache_key).value


# -- the hit path stays lean -------------------------------------------------------
def test_text_hit_enters_no_generator_and_looks_nothing_up(db, counted):
    for _ in range(3):
        for sql in READS:
            db.execute(sql)
    assert db.last_exec_stats().recycled == "hit"
    counted.update(dict.fromkeys(counted, 0))
    for _ in range(5):
        for sql in READS:
            db.execute(sql)
            assert db.last_exec_stats().recycled == "hit"
    assert counted == {"generator scopes": 0, "catalog lookups": 0}


def test_handle_hit_enters_no_generator_and_looks_nothing_up(db, counted):
    handles = [db.prepare(sql) for sql in READS]
    for _ in range(3):
        for handle in handles:
            handle.execute()
    counted.update(dict.fromkeys(counted, 0))
    for _ in range(5):
        for handle in handles:
            handle.execute()
            assert db.last_exec_stats().recycled == "hit"
    assert counted == {"generator scopes": 0, "catalog lookups": 0}


def test_a_moved_version_checks_the_catalogue_once(db, counted):
    handle = db.prepare(READS[1])
    handle.execute()
    db.execute("INSERT INTO t VALUES (5000, 3, 'c9', DATE '1995-01-01')")
    counted.update(dict.fromkeys(counted, 0))
    handle.execute()
    # One lookup for the table whose version moved, and none after it.
    assert counted["catalog lookups"] == 1
    handle.execute()
    assert counted["catalog lookups"] == 1


# -- the checks still fire ---------------------------------------------------------
def test_plan_is_reoptimized_after_a_table_doubles(db):
    handle = db.prepare(READS[1])
    handle.execute()
    first = _plan(db, handle)
    invalidations = db.service.stats().cache.invalidations
    # Half again as many rows: inside [½×, 2×], the plan stands.
    db.load_rows("t", ROWS[:1500])
    assert handle.execute() == db.execute(READS[1], engine="volcano")
    assert _plan(db, handle) is first
    # Past twice the planned rows: optimized again.
    db.load_rows("t", ROWS[:1600])
    assert handle.execute() == db.execute(READS[1], engine="volcano")
    assert _plan(db, handle) is not first
    assert db.service.stats().cache.invalidations == invalidations + 1
    assert dict(_plan(db, handle).deps) == {"t": 6100}


def test_plan_is_reoptimized_after_a_table_halves(db):
    handle = db.prepare(READS[0])
    handle.execute()
    first = _plan(db, handle)
    db.execute("DELETE FROM t WHERE a >= 1400")
    assert handle.execute() == db.execute(READS[0], engine="volcano")
    assert _plan(db, handle) is not first


def test_handle_is_reprepared_after_drop_and_create(db):
    handle = db.prepare("SELECT a, c FROM t WHERE a < ?")
    assert handle.execute((2,)) == [(0, "c0"), (1, "c1")]
    assert handle.execute((2,)) == [(0, "c0"), (1, "c1")]
    db.catalog.drop_table("t")
    db.create_table("t", COLUMNS)
    db.load_rows("t", [(i, 0, "new", 8000) for i in range(50)])
    assert handle.execute((2,)) == [(0, "new"), (1, "new")]
    assert db.execute("SELECT a, c FROM t WHERE a < 2") == [
        (0, "new"), (1, "new"),
    ]


def _mutations():
    """Every public Table call that can change what a scan sees."""
    def update_scan(table):
        table.update_rows(lambda row: row[0] < 10, lambda row: row)

    def update_at(table):
        table.update_rows(
            lambda row: True, lambda row: row, KeyRange("t.a", 3, 3)
        )

    def delete_scan(table):
        table.delete_rows(lambda row: row[0] < 10)

    def delete_at(table):
        table.delete_rows(lambda row: True, KeyRange("t.a", 20, 22))

    return {
        "append": lambda table: table.append((9000, 1, "x", 8000)),
        "append_rows": lambda table: table.append_rows(
            [(9001, 1, "x", 8000), (9002, 1, "x", 8000)]
        ),
        "load_rows": lambda table: table.load_rows([(9003, 1, "x", 8000)]),
        "update_rows (scan)": update_scan,
        "update_rows (index)": update_at,
        "delete_rows (scan)": delete_scan,
        "delete_rows (index)": delete_at,
        "truncate": lambda table: table.truncate(),
    }


@pytest.mark.parametrize("mutation", sorted(_mutations()))
def test_every_table_mutation_moves_the_version(mutation):
    table = Table("t", Schema(COLUMNS))
    table.load_rows(ROWS[:500])
    table.create_index("t.a")
    version, rows = table.version, table.num_rows
    _mutations()[mutation](table)
    assert table.version > version
    if not mutation.startswith("update"):
        assert table.num_rows != rows


def test_parameter_check_messages_are_unchanged(db):
    by_c = db.prepare("SELECT a FROM t WHERE c = ? AND d < ?")
    by_b = db.prepare("SELECT a FROM t WHERE b = ?")
    assert len(by_c.execute(("c1", 8100))) == 200
    assert len(by_c.execute(("c2", datetime.date(1992, 1, 1)))) == 70
    cases = [
        (by_c, (3, 8100),
         "parameter ?1 is bound as CHAR(8); got int 3"),
        (by_c, ("c1", "x"),
         "parameter ?2 is bound as DATE; got str 'x' "
         "(pass a datetime.date or a day ordinal)"),
        (by_b, ("x",), "parameter ?1 is bound as INT; got str 'x'"),
        (by_b, (True,), "parameter ?1 is bound as INT; got bool True"),
    ]
    for handle, params, message in cases:
        with pytest.raises(ServiceError) as caught:
            handle.execute(params)
        assert str(caught.value) == message


def test_insights_digests_match_the_reference(db):
    """Read / INSERT / read: the digests as the service reported them
    before statements kept their digest between executions."""
    for _ in range(4):
        for sql in READS:
            db.execute(sql)
    db.execute("SELECT a, b FROM t WHERE b = 4 AND a < 40")
    db.execute("INSERT INTO t VALUES (5000, 3, 'c9', DATE '1995-01-01')")
    for sql in READS:
        db.execute(sql)
    handle = db.prepare("SELECT a FROM t WHERE c = ? AND d < ?")
    for params in [("c1", 8100), ("c2", datetime.date(1992, 1, 1)),
                   (3, 8100), ("c1", "x")]:
        with contextlib.suppress(ServiceError):
            handle.execute(params)
    db.execute("INSERT INTO u VALUES (9999, 4)")
    db.execute(READS[2])
    snapshot = db.insights().snapshot(top=20)
    fields = ("statement", "calls", "errors", "rows", "cache_lookups",
              "cache_hits", "tables", "pages_hit", "pages_missed")
    got = sorted(
        tuple(digest[name] for name in fields)
        for digest in snapshot["digests"]
    )
    assert got == [
        ("INSERT INTO t VALUES (?, ?, ?, ?)", 1, 0, 1, 1, 0, ["t"], 1, 0),
        ("INSERT INTO u VALUES (?, ?)", 1, 0, 1, 1, 0, ["u"], 1, 0),
        ("SELECT a FROM t WHERE c = ? AND d < ?", 4, 2, 270, 4, 4, ["t"],
         42, 0),
        ("SELECT a, b FROM t WHERE b = ? AND a < ?", 1, 0, 6, 1, 1, ["t"],
         21, 0),
        ("SELECT b, count(*) AS n FROM t GROUP BY b ORDER BY b", 1, 0, 7,
         1, 1, ["t"], 21, 0),
        ("SELECT t.a, u.v FROM t, u WHERE t.a = u.k AND u.v < ?", 1, 0,
         15, 1, 1, ["t", "u"], 25, 0),
    ]
    assert {
        name: snapshot[name]
        for name in ("statements", "recorded", "resets", "scoped_resets")
    } == {"statements": 6, "recorded": 23, "resets": 0, "scoped_resets": 2}


def test_a_reset_digest_is_not_folded_into(db):
    """A handle keeps its digest; a reset must start a fresh one."""
    handle = db.prepare(READS[0])
    handle.execute()
    handle.execute()
    db.insights().digests.reset()
    handle.execute()
    (digest,) = db.insights().snapshot()["digests"]
    assert digest["calls"] == 1
