"""The write path: INSERT / UPDATE / DELETE across every layer.

Covers the SQL front-end (parse, bind, parameterize), storage-level
mutation (heap pages, per-table version epochs, B+-tree index
maintenance), the service layer (DML under the catalog write gate,
read plans that survive DML until a row count drifts 2×, staged
intermediates dropped per table), and the outer front-ends (Database facade, prepared
statements, the TCP server with its typed ``bad_request`` mapping).
"""

from __future__ import annotations

import pytest

from repro import Column, Database, INT, DOUBLE, char
from repro.api import ENGINE_KINDS
from repro.errors import (
    BindError,
    CatalogError,
    ConstraintError,
    ParseError,
    ProtocolError,
    ServiceError,
)
from repro.server import QueryClient
from repro.sql import ast
from repro.sql.binder import Binder
from repro.sql.parameters import (
    count_statement_parameters,
    parameterize_statement,
)
from repro.sql.parser import parse_statement, statement_kind
from repro.storage import Catalog, Schema
from repro.storage import Column as SColumn
from repro.storage import INT as SINT


def _db() -> Database:
    db = Database()
    db.create_table(
        "t", [Column("a", INT), Column("b", DOUBLE), Column("c", char(4))]
    )
    db.load_rows("t", [(i, i * 0.5, f"g{i % 3}") for i in range(50)])
    db.create_table("u", [Column("k", INT), Column("v", INT)])
    db.load_rows("u", [(i, i * 2) for i in range(20)])
    db.analyze()
    return db


# -- SQL front-end ----------------------------------------------------------------


class TestParser:
    def test_statement_kinds(self):
        assert statement_kind("SELECT a FROM t") == "select"
        assert statement_kind("INSERT INTO t VALUES (1)") == "insert"
        assert statement_kind("UPDATE t SET a = 1") == "update"
        assert statement_kind("DELETE FROM t") == "delete"

    def test_parse_insert_multi_row(self):
        stmt = parse_statement(
            "INSERT INTO t (a, b) VALUES (1, 2.5), (3, 4.5)"
        )
        assert isinstance(stmt, ast.Insert)
        assert stmt.table == "t"
        assert tuple(stmt.columns) == ("a", "b")
        assert len(stmt.rows) == 2

    def test_parse_update_with_where(self):
        stmt = parse_statement("UPDATE t SET b = 1.5 WHERE a = 3")
        assert isinstance(stmt, ast.Update)
        assert [a.column for a in stmt.assignments] == ["b"]
        assert stmt.where is not None

    def test_parse_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a > 10")
        assert isinstance(stmt, ast.Delete)
        assert stmt.table == "t"

    def test_select_still_parses(self):
        stmt = parse_statement("SELECT a FROM t")
        assert isinstance(stmt, ast.Query)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("DELETE FROM t WHERE a = 1 garbage")

    def test_parameters_counted(self):
        stmt = parse_statement("INSERT INTO t VALUES (?, ?, ?)")
        assert count_statement_parameters(stmt) == 3


class TestBinder:
    def _catalog(self) -> Catalog:
        catalog = Catalog()
        catalog.create_table(
            "t", Schema([SColumn("a", SINT), SColumn("b", SINT)])
        )
        return catalog

    def test_insert_arity_mismatch(self):
        binder = Binder(self._catalog())
        with pytest.raises(ConstraintError):
            binder.bind_statement(
                parse_statement("INSERT INTO t VALUES (1)")
            )

    def test_insert_unknown_column(self):
        binder = Binder(self._catalog())
        with pytest.raises(BindError):
            binder.bind_statement(
                parse_statement("INSERT INTO t (a, zz) VALUES (1, 2)")
            )

    def test_update_unknown_column(self):
        binder = Binder(self._catalog())
        with pytest.raises(BindError):
            binder.bind_statement(
                parse_statement("UPDATE t SET zz = 1")
            )

    def test_unknown_table(self):
        # The same CatalogError a SELECT over a missing table raises.
        binder = Binder(self._catalog())
        with pytest.raises(CatalogError):
            binder.bind_statement(
                parse_statement("DELETE FROM nosuch")
            )

    def test_dml_literals_parameterize_away(self):
        parameterized = parameterize_statement(
            parse_statement("INSERT INTO t VALUES (1, 2)")
        )
        assert parameterized.num_params == 2
        assert parameterized.values == (1, 2)


# -- storage: versions and indexes ------------------------------------------------


class TestVersionEpochs:
    def test_load_and_dml_bump_versions(self):
        db = _db()
        try:
            assert db.catalog.version_of("t") == 1  # the initial load
            db.execute("INSERT INTO t VALUES (100, 1.0, 'g0')")
            assert db.catalog.version_of("t") == 2
            db.execute("UPDATE t SET b = 0.0 WHERE a = 100")
            assert db.catalog.version_of("t") == 3
            db.execute("DELETE FROM t WHERE a = 100")
            assert db.catalog.version_of("t") == 4
            # Versions are statement-granular: a multi-row INSERT is
            # one mutation, one bump.
            db.execute(
                "INSERT INTO t VALUES (101, 1.0, 'g1'), (102, 2.0, 'g2')"
            )
            assert db.catalog.version_of("t") == 5
            # Untouched tables keep their epoch.
            assert db.catalog.version_of("u") == 1
            assert set(db.catalog.versions()) == {"t", "u"}
        finally:
            db.close()

    def test_noop_dml_does_not_bump(self):
        db = _db()
        try:
            before = db.catalog.version_of("t")
            db.execute("DELETE FROM t WHERE a = -999")
            db.execute("UPDATE t SET b = 0.0 WHERE a = -999")
            assert db.catalog.version_of("t") == before
        finally:
            db.close()


class TestIndexMaintenance:
    def test_indexes_stay_consistent_through_dml(self):
        db = _db()
        try:
            table = db.table("t")
            table.create_index("a")
            db.execute("INSERT INTO t VALUES (500, 9.0, 'g9')")
            assert db.execute("SELECT b FROM t WHERE a = 500") == [(9.0,)]
            db.execute("UPDATE t SET b = 7.0 WHERE a = 500")
            assert db.execute("SELECT b FROM t WHERE a = 500") == [(7.0,)]
            db.execute("DELETE FROM t WHERE a = 500")
            assert db.execute("SELECT b FROM t WHERE a = 500") == []
            index = table.index_on("a")
            assert index is not None
            # Every indexed key still resolves to a live, matching row.
            assert table.num_rows == 50
        finally:
            db.close()


# -- service + facade -------------------------------------------------------------


class TestDatabaseDml:
    def test_insert_returns_rowcount(self):
        db = _db()
        try:
            assert db.execute(
                "INSERT INTO t VALUES (100, 1.0, 'gx'), (101, 2.0, 'gy')"
            ) == [(2,)]
            assert db.execute(
                "SELECT count(a) AS n FROM t WHERE a >= 100"
            ) == [(2,)]
        finally:
            db.close()

    def test_update_and_delete_rowcounts(self):
        db = _db()
        try:
            assert db.execute(
                "UPDATE t SET b = ? WHERE c = ?", params=(0.0, "g1")
            ) == [(17,)]
            assert db.execute("DELETE FROM t WHERE c = 'g1'") == [(17,)]
            assert db.execute("SELECT count(a) AS n FROM t") == [(33,)]
        finally:
            db.close()

    def test_update_expression_uses_pre_update_row(self):
        db = _db()
        try:
            db.execute("UPDATE t SET b = b + 1.0 WHERE a < 3")
            rows = db.execute(
                "SELECT a, b FROM t WHERE a < 3 ORDER BY a"
            )
            assert rows == [(0, 1.0), (1, 1.5), (2, 2.0)]
        finally:
            db.close()

    def test_all_engines_see_post_write_data(self):
        db = _db()
        try:
            for kind in ENGINE_KINDS:
                db.execute(
                    "SELECT count(a) AS n FROM t", engine=kind
                )  # warm every engine's caches
            db.execute("INSERT INTO t VALUES (900, 0.0, 'gz')")
            for kind in ENGINE_KINDS:
                assert db.execute(
                    "SELECT count(a) AS n FROM t", engine=kind
                ) == [(51,)], kind
        finally:
            db.close()

    def test_prepared_dml_and_execute_many(self):
        db = _db()
        try:
            stmt = db.prepare("INSERT INTO t VALUES (?, ?, ?)")
            assert stmt.num_params == 3
            assert stmt.output_names == ["rows_affected"]
            assert stmt.execute((200, 1.0, "ga")) == [(1,)]
            counts = stmt.execute_many(
                [(201, 2.0, "gb"), (202, 3.0, "gc")]
            )
            assert counts == [[(1,)], [(1,)]]
            assert db.execute(
                "SELECT count(a) AS n FROM t WHERE a >= 200"
            ) == [(3,)]
        finally:
            db.close()

    def test_constraint_violation_mutates_nothing(self):
        db = _db()
        try:
            with pytest.raises(ConstraintError):
                # Second row's string exceeds char(4): the whole
                # statement must be rejected, including the valid row.
                db.execute(
                    "INSERT INTO t VALUES (300, 1.0, 'ok'), "
                    "(301, 2.0, 'waytoolong')"
                )
            assert db.execute(
                "SELECT count(a) AS n FROM t WHERE a >= 300"
            ) == [(0,)]
            assert db.catalog.version_of("t") == 1
        finally:
            db.close()

    def test_explain_rejects_dml(self):
        db = _db()
        try:
            # There is no physical plan for DML: the service refuses
            # with a typed error, the facade's SELECT-only explain path
            # rejects it at the parser.
            with pytest.raises(ServiceError):
                db.service.physical_plan("DELETE FROM t WHERE a = 1")
            with pytest.raises(ParseError):
                db.explain("DELETE FROM t WHERE a = 1")
        finally:
            db.close()


class TestFineGrainedInvalidation:
    def test_read_plans_survive_dml_and_intermediates_do_not(self):
        db = _db()
        try:
            db.execute("SELECT count(v) AS n FROM u")
            assert db.execute("SELECT count(a) AS n FROM t") == [(50,)]
            before = {e.key for e in db.service.cache.entries()}
            # Bank a staged intermediate for each table by hand: the
            # fixture's tables are too small for the scheduler to.
            for name in ("t", "u"):
                db.intermediates.put(
                    name, db.table(name).version, ("sig",), [(1,)]
                )
            invalidations = db.service.cache.stats().invalidations
            compiled = db.service.cache.stats().misses
            db.execute("INSERT INTO t VALUES (700, 0.0, 'gq')")
            after = {e.key for e in db.service.cache.entries()}
            assert before <= after, "a read plan was dropped by DML"
            assert db.service.cache.stats().invalidations == invalidations
            # The surviving plan reads the live heap: no re-preparation,
            # right answer.
            assert db.execute("SELECT count(a) AS n FROM t") == [(51,)]
            assert db.service.cache.stats().misses == compiled + 1  # INSERT
            assert db.intermediates.get(
                "t", db.table("t").version - 1, ("sig",)
            ) is None
            assert db.intermediates.get(
                "u", db.table("u").version, ("sig",)
            ) == [(1,)]
        finally:
            db.close()

    def test_row_count_drift_replans(self):
        db = _db()
        try:
            select = "SELECT count(a) AS n FROM t"
            db.execute(select)
            (entry,) = [
                e for e in db.service.cache.entries() if e.deps
            ]
            assert entry.deps == (("t", 50),)
            stmt = db.prepare("INSERT INTO t VALUES (?, ?, ?)")
            for i in range(50):  # 50 -> 100 rows: still within 2x
                stmt.execute((1000 + i, 0.0, "gd"))
            invalidations = db.service.cache.stats().invalidations
            assert db.execute(select) == [(100,)]
            assert db.service.cache.stats().invalidations == invalidations
            stmt.execute((2000, 0.0, "gd"))  # 101 rows: past 2x
            assert db.execute(select) == [(101,)]
            assert (
                db.service.cache.stats().invalidations == invalidations + 1
            )
            (entry,) = [
                e for e in db.service.cache.entries() if e.deps
            ]
            assert entry.deps == (("t", 101),)
            # Shrinking below half re-plans too.
            db.execute("DELETE FROM t WHERE a >= 50")
            assert db.table("t").num_rows == 50
            assert db.execute(select) == [(50,)]
            assert (
                db.service.cache.stats().invalidations == invalidations + 2
            )
        finally:
            db.close()

    def test_index_creation_replans_and_is_picked_up(self):
        db = _db()
        try:
            select = "SELECT b FROM t WHERE a = 7"
            assert db.execute(select) == [(3.5,)]
            assert db.service.physical_plan(select).operators[0].index is None
            db.create_index("t", "a")
            assert db.service.cache.stats().size == 0
            assert db.execute(select) == [(3.5,)]
            scan = db.service.physical_plan(select).operators[0]
            assert scan.index.describe() == "index(a) [= ?]"
            assert "index: 1 rids" in "; ".join(db.last_exec_stats().notes)
        finally:
            db.close()

    def test_dml_plans_survive_their_own_mutations(self):
        db = _db()
        try:
            stmt = db.prepare("INSERT INTO t VALUES (?, ?, ?)")
            stmt.execute((800, 0.0, "gm"))
            hits_before = db.service.cache.stats().hits
            stmt.execute((801, 0.0, "gm"))
            assert db.service.cache.stats().hits > hits_before
        finally:
            db.close()

    def test_ddl_still_invalidates_wholesale(self):
        db = _db()
        try:
            db.execute("SELECT count(v) AS n FROM u")
            assert db.service.cache.stats().size > 0
            db.create_table("w", [Column("x", INT)])
            assert db.service.cache.stats().size == 0
        finally:
            db.close()

    def test_stale_entry_detected_without_listener(self):
        """The validation-on-hit backstop: a mutation that bypasses the
        catalogue listeners (direct table access) still never serves a
        stale plan."""
        db = _db()
        try:
            db.execute("SELECT count(a) AS n FROM t")
            # Mutate behind the service's back: bump the version only.
            with db.catalog.exclusive():
                db.table("t").load_rows([(999, 0.0, "gs")])
            assert db.execute("SELECT count(a) AS n FROM t") == [(51,)]
        finally:
            db.close()


class TestWorkloadInsightsScoping:
    def test_dml_reset_scopes_to_the_mutated_table(self):
        db = _db()
        try:
            db.execute("SELECT count(v) AS n FROM u")
            db.execute("SELECT count(a) AS n FROM t")
            db.execute("INSERT INTO t VALUES (600, 0.0, 'gn')")
            snapshot = db.insights().snapshot()
            assert snapshot["scoped_resets"] >= 1
            digests = {
                d["statement"]: tuple(d["tables"])
                for d in snapshot["digests"]
            }
            # The u-only SELECT digest survives; the t SELECT digest was
            # dropped (the INSERT's own fresh digest may reference t).
            assert any(
                tables == ("u",) and stmt.startswith("SELECT")
                for stmt, tables in digests.items()
            )
            assert not any(
                tables == ("t",) and stmt.startswith("SELECT")
                for stmt, tables in digests.items()
            )
        finally:
            db.close()


# -- TCP server -------------------------------------------------------------------


class TestServerDml:
    def test_dml_over_the_wire(self):
        db = _db()
        handle = db.serve(host="127.0.0.1", port=0)
        client = QueryClient(*handle.address, timeout=30)
        try:
            assert client.query(
                "INSERT INTO t VALUES (?, ?, ?)", params=[400, 1.0, "gw"]
            ) == [(1,)]
            assert client.query(
                "UPDATE t SET b = 2.0 WHERE a = 400"
            ) == [(1,)]
            stmt = client.prepare("DELETE FROM t WHERE a = ?")
            assert client.execute(stmt, [400]) == [(1,)]
            assert client.query(
                "SELECT count(a) AS n FROM t"
            ) == [(50,)]
        finally:
            client.close()
            handle.stop()
            db.close()

    def test_constraint_errors_map_to_bad_request(self):
        db = _db()
        handle = db.serve(host="127.0.0.1", port=0)
        client = QueryClient(*handle.address, timeout=30)
        try:
            with pytest.raises(ProtocolError):
                client.query("INSERT INTO t VALUES (1)")
            # The connection survives the typed error.
            assert client.ping()
        finally:
            client.close()
            handle.stop()
            db.close()
