"""Index access paths end to end.

Storage (probe rule, in-place indexed UPDATE/DELETE, the index↔heap
check), the optimizer's choice of access, the generated probe+fetch
pair, ``run_query``'s use of it, and what EXPLAIN / metrics say about
which path ran.  The cross-engine with-vs-without-index sweep lives in
``test_differential_fuzz.py``.
"""

from __future__ import annotations

import datetime

import pytest

from repro import Column, Database, DATE, DOUBLE, INT, char
from repro.api import ENGINE_KINDS
from repro.core.executor import build_context
from repro.errors import CatalogError, ConstraintError, StorageError
from repro.memsim import Probe
from repro.parallel.stage import StageAccess
from repro.plan.optimizer import Optimizer, index_access_for
from repro.sql.binder import Binder
from repro.sql.parser import parse, parse_statement
from repro.storage import KeyRange, Schema
from repro.storage.table import (
    INDEX_DECLINE_DIVISOR,
    INDEX_DECLINE_FLOOR,
    table_from_rows,
)

ROWS = 2_000


def _table(rows: int = ROWS):
    schema = Schema(
        [Column("id", INT), Column("grp", INT), Column("val", DOUBLE),
         Column("tag", char(6))]
    )
    table = table_from_rows(
        "t", schema,
        [(i, i % 10, i * 0.5, f"t{i % 3}") for i in range(rows)],
    )
    table.create_index("id")
    table.create_index("grp")
    return table


def _db(rows: int = ROWS) -> Database:
    db = Database()
    db.create_table("t", [
        Column("id", INT), Column("grp", INT), Column("val", DOUBLE),
        Column("tag", char(6)), Column("born", DATE),
    ])
    start = datetime.date(2020, 1, 1)
    db.load_rows("t", [
        (i, i % 10, i * 0.5, f"t{i % 3}",
         start + datetime.timedelta(days=i % 400))
        for i in range(rows)
    ])
    db.create_table("g", [Column("grp", INT), Column("name", char(8))])
    db.load_rows("g", [(i, f"g{i}") for i in range(10)])
    db.create_index("t", "id")
    db.analyze()
    return db


def _is_true(row) -> bool:
    return True


# -- storage: the probe ------------------------------------------------------------


class TestProbe:
    def test_point_and_narrow_range_are_accepted_in_heap_order(self):
        table = _table()
        hit = table.probe_index("id", 7, 7)
        assert hit.rids is not None and hit.matched == 1
        assert table.row_at(*hit.rids[0])[0] == 7
        hit = table.probe_index("id", 100, 120, True, False)
        assert [table.row_at(*rid)[0] for rid in hit.rids] == list(
            range(100, 120)
        )
        assert hit.rids == sorted(hit.rids)

    def test_absent_key_and_empty_range(self):
        table = _table()
        assert table.probe_index("id", -5, -5).rids == []
        assert table.probe_index("id", 50, 40).rids == []
        assert table.probe_index("id", 10, 10, True, False).rids == []

    def test_wide_range_declines_one_past_the_cutoff(self):
        table = _table()
        cutoff = max(ROWS // INDEX_DECLINE_DIVISOR, INDEX_DECLINE_FLOOR)
        at = table.probe_index("id", 0, cutoff, True, False)
        assert at.rids is not None and at.matched == cutoff == at.cutoff
        past = table.probe_index("id", 0, cutoff, True, True)
        assert past.rids is None and past.matched == cutoff + 1
        wide = table.probe_index("id", None, None)
        assert wide.rids is None and wide.matched == cutoff + 1

    def test_duplicate_heavy_equality_declines_on_its_exact_count(self):
        table = _table()
        hit = table.probe_index("grp", 3, 3)
        assert hit.rids is None and hit.matched == ROWS // 10

    def test_small_tables_keep_a_floor(self):
        table = _table(rows=40)
        hit = table.probe_index("id", 0, 15, True, True)
        assert hit.rids is not None and hit.cutoff == INDEX_DECLINE_FLOOR

    def test_counters(self):
        table = _table()
        table.probe_index("id", 1, 1)
        table.probe_index("id", 1, 5)
        table.probe_index("id", None, None)
        assert (table.index_probes, table.index_declined) == (2, 1)


# -- storage: indexed DML ------------------------------------------------------------


class TestIndexedDml:
    def test_update_in_place_touches_only_the_named_rows(self):
        table = _table()
        before = table.all_rows()
        version = table.version
        grp_index = table.index_on("grp")
        changed = table.update_rows(
            lambda row: row[0] == 77,
            lambda row: (row[0], row[1], -1.0, row[3]),
            KeyRange("id", 77, 77),
        )
        assert changed == 1 and table.version == version + 1
        after = table.all_rows()
        assert after[77] == (77, 7, -1.0, "t2")
        assert after[:77] + after[78:] == before[:77] + before[78:]
        # No indexed key changed: the trees were not rebuilt.
        assert table.index_on("grp") is grp_index
        table.check_indexes()

    def test_update_of_an_indexed_key_patches_its_entries(self):
        table = _table()
        id_index = table.index_on("id")
        table.update_rows(
            lambda row: 10 <= row[0] < 20,
            lambda row: (row[0] + 100_000, 42, row[2], row[3]),
            KeyRange("id", 10, 20, True, False),
        )
        assert table.index_on("id") is id_index
        assert table.probe_index("id", 10, 19).rids == []
        assert len(table.probe_index("id", 100_010, 100_019).rids) == 10
        assert table.probe_index("grp", 42, 42).matched == 10
        table.check_indexes()

    def test_predicate_is_still_checked_in_full(self):
        table = _table()
        changed = table.update_rows(
            lambda row: row[0] < 30 and row[1] == 3,
            lambda row: (row[0], row[1], 0.0, row[3]),
            KeyRange("id", None, 30, True, False),
        )
        assert changed == 3
        assert [r[0] for r in table.all_rows() if r[2] == 0.0 and r[0]] == [
            3, 13, 23,
        ]

    def test_failed_encode_changes_nothing(self):
        table = _table()
        before = table.all_rows()
        version = table.version
        with pytest.raises(StorageError):
            table.update_rows(
                lambda row: row[0] < 5,
                # The third row's tag no longer fits CHAR(6).
                lambda row: (
                    row[0], row[1], 9.0,
                    "toolong!" if row[0] == 2 else "ok",
                ),
                KeyRange("id", 0, 5, True, False),
            )
        assert table.all_rows() == before and table.version == version
        table.check_indexes()

    def test_delete_moves_the_tail_row_into_the_hole(self):
        table = _table()
        last = table.all_rows()[-1]
        hole = table.probe_index("id", 5, 5).rids[0]
        version = table.version
        assert table.delete_rows(_is_true, KeyRange("id", 5, 5)) == 1
        assert table.num_rows == ROWS - 1 and table.version == version + 1
        assert table.row_at(*hole) == last
        assert table.probe_index("id", last[0], last[0]).rids == [hole]
        assert sorted(r[0] for r in table.scan_rows()) == [
            i for i in range(ROWS) if i != 5
        ]
        table.check_indexes()

    def test_delete_of_the_tail_itself_and_of_a_run_ending_there(self):
        table = _table()
        assert table.delete_rows(
            _is_true, KeyRange("id", ROWS - 1, ROWS - 1)
        ) == 1
        assert table.delete_rows(
            lambda row: row[0] % 2 == 0,
            KeyRange("id", ROWS - 40, None),
        ) == 20
        assert sorted(r[0] for r in table.scan_rows()) == [
            i for i in range(ROWS - 1)
            if i < ROWS - 40 or i % 2
        ]
        table.check_indexes()

    def test_emptied_tail_pages_are_refilled_not_leaked(self):
        table = _table(rows=600)
        pages = table.num_pages
        per_page = table.read_page(0).capacity
        for _ in range(6):
            # Empty the last page and more, then grow back past it.
            lo = table.num_rows - per_page - 3
            removed = sum(
                table.delete_rows(_is_true, KeyRange("id", key, key))
                for key in [r[0] for r in table.all_rows()[lo:]]
            )
            assert removed == per_page + 3
            table.append_rows(
                (10_000 + i, 0, 0.0, "new") for i in range(per_page + 3)
            )
            table.check_indexes()
        assert table.num_pages == pages
        assert table.num_rows == 600

    def test_unindexed_or_wide_ranges_take_the_scan_path(self):
        table = _table()
        id_index = table.index_on("id")
        assert table.delete_rows(
            lambda row: row[2] < 3.0, KeyRange("val", None, 3.0)
        ) == 6  # no index on val: scanned, repacked, rebuilt
        assert table.index_on("id") is not id_index
        id_index = table.index_on("id")
        assert table.update_rows(
            lambda row: row[0] >= 1000,
            lambda row: (row[0], row[1], 1.0, row[3]),
            KeyRange("id", 1000, None),
        ) == 1000  # half the table: the probe declines
        assert table.index_on("id") is not id_index
        table.check_indexes()

    def test_check_indexes_catches_divergence(self):
        table = _table()
        table.check_indexes()
        table.index_on("id").insert(123_456, (0, 0))
        with pytest.raises(StorageError):
            table.check_indexes()
        table = _table()
        table.index_on("id").delete(9, table.probe_index("id", 9, 9).rids[0])
        with pytest.raises(StorageError):
            table.check_indexes()

    def test_char_keys_are_indexed_in_their_stored_form(self):
        table = _table(rows=50)
        table.create_index("tag")
        table.append_rows([(900, 1, 1.0, "pad  ")])
        table.check_indexes()
        assert table.index_on("tag").search("pad") != []


# -- plan: choosing the access --------------------------------------------------------


def _access(db: Database, where: str):
    bound = Binder(db.catalog).bind(parse(f"SELECT id FROM t WHERE {where}"))
    return index_access_for(db.table("t"), bound.filters["t"])


class TestChoice:
    def test_sargable_shapes(self):
        db = _db()
        try:
            describe = lambda where: _access(db, where).describe()
            assert describe("id = 5") == "index(id) [= 5]"
            assert describe("id = ?") == "index(id) [= ?]"
            assert describe("5 = id") == "index(id) [= 5]"
            assert describe("id >= 5 AND id < ?") == "index(id) [>= 5 AND < ?]"
            assert describe("7 > id") == "index(id) [< 7]"
            assert describe("id > 3 AND grp = 2") == "index(id) [> 3]"
            assert describe("id = ? + 1") == "index(id) [= expr]"
            # The first bound of a kind is probed; its twin only filters.
            assert describe("id > 3 AND id > 9") == "index(id) [> 3]"
        finally:
            db.close()

    def test_not_sargable(self):
        db = _db()
        try:
            assert _access(db, "id <> 5") is None
            assert _access(db, "grp = 5") is None  # not indexed
            assert _access(db, "id = grp") is None
            assert _access(db, "id + 1 = 5") is None
        finally:
            db.close()

    def test_equality_beats_a_range_on_another_index(self):
        db = _db()
        try:
            db.create_index("t", "grp")
            assert _access(
                db, "id > 5 AND id < 90 AND grp = 2"
            ).describe() == "index(grp) [= 2]"
            assert _access(
                db, "grp > 5 AND id > 2 AND id <= 9"
            ).describe() == "index(id) [> 2 AND <= 9]"
        finally:
            db.close()

    def test_filters_stay_as_residuals(self):
        db = _db()
        try:
            bound = Binder(db.catalog).bind(
                parse("SELECT val FROM t WHERE id >= 5 AND id < 9 AND grp = 7")
            )
            scan = Optimizer(db.catalog).plan(bound).operators[0]
            assert scan.index is not None and len(scan.filters) == 3
        finally:
            db.close()

    def test_dml_uses_the_same_choice(self):
        db = _db()
        try:
            bound = Binder(db.catalog).bind_statement(
                parse_statement("DELETE FROM t WHERE id >= ? AND id < 40")
            )
            access = index_access_for(bound.table, bound.where)
            assert access.describe() == "index(id) [>= ? AND < 40]"
        finally:
            db.close()


# -- generated code and run_query --------------------------------------------------------


POINT = "SELECT id, val, tag FROM t WHERE id = ?"
RANGE = (
    "SELECT grp, count(*) AS n, sum(val) AS total FROM t "
    "WHERE id >= ? AND id < ? GROUP BY grp"
)
JOIN = (
    "SELECT t.id AS id, g.name AS name FROM t, g "
    "WHERE t.grp = g.grp AND t.id = ?"
)


class TestExecution:
    def test_generated_module_has_a_probe_and_fetch_beside_the_scan(self):
        db = _db()
        try:
            source = db.generated_source("SELECT val FROM t WHERE id = 5")
            assert "def stage_o0(ctx, _lo=0):" in source
            assert "def stage_o0_probe(ctx):" in source
            assert "def stage_o0_fetch(ctx, _rids):" in source
            assert "probe_index('id', 5, 5, True, True)" in source
            plain = db.generated_source("SELECT val FROM t WHERE grp = 5")
            assert "_probe" not in plain and "_fetch" not in plain
            traced = db.engine("hique").generate_source(
                "SELECT val FROM t WHERE id = 5", traced=True
            )
            assert "stage_o0_fetch" not in traced
        finally:
            db.close()

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_every_engine_agrees_with_and_without_the_index(self, kind):
        indexed, plain = _db(), Database()
        try:
            plain.create_table("t", indexed.table("t").schema)
            plain.load_rows("t", indexed.table("t").all_rows())
            plain.create_table("g", indexed.table("g").schema)
            plain.load_rows("g", indexed.table("g").all_rows())
            plain.analyze()
            cases = [
                (POINT, (77,)), (POINT, (-1,)), (RANGE, (100, 180)),
                (RANGE, (0, ROWS)), (JOIN, (1234,)),
                ("SELECT id FROM t WHERE id > ? AND tag = 't1' "
                 "ORDER BY id DESC LIMIT 5", (ROWS - 30,)),
                ("SELECT count(*) AS n FROM t WHERE "
                 "id <= 40 AND born >= DATE '2020-01-20'", None),
            ]
            for sql, params in cases:
                assert indexed.execute(sql, engine=kind, params=params) == (
                    plain.execute(sql, engine=kind, params=params)
                ), sql
        finally:
            indexed.close()
            plain.close()

    def test_notes_say_which_path_ran(self):
        db = _db()
        try:
            db.execute(POINT, params=(5,))
            stats = db.last_exec_stats()
            assert not stats.parallel
            assert "table 't': index: 1 rids" in stats.notes
            db.execute(RANGE, params=(0, ROWS))
            cutoff = ROWS // INDEX_DECLINE_DIVISOR
            assert (
                f"table 't': index declined: {cutoff + 1} > {cutoff}, scanned"
                in db.last_exec_stats().notes
            )
        finally:
            db.close()

    def test_index_path_banks_no_intermediate(self):
        db = _db(rows=6_000)  # enough pages to bank a staging
        try:
            db.execute(JOIN, params=(4321,))
            assert db.intermediates.stats().entries == 0
            db.execute(RANGE, params=(0, 6_000))  # declined: scanned
            before = db.intermediates.stats()
            for _ in range(2):  # a staging is banked from its second miss
                db.execute(
                    "SELECT t.id AS id, g.name AS name FROM t, g "
                    "WHERE t.grp = g.grp AND t.id > ?", params=(10,),
                )
            assert db.intermediates.stats().entries > before.entries
        finally:
            db.close()

    def test_run_query_probes_through_its_access_object(self):
        db = Database(workers=1)
        try:
            db.create_table("t", [Column("id", INT), Column("v", INT)])
            db.load_rows("t", [(i, i * 2) for i in range(ROWS)])
            db.create_index("t", "id")
            db.analyze()
            table = db.table("t")
            assert db.execute(
                "SELECT v FROM t WHERE id = ?", params=(9,)
            ) == [(18,)]
            assert (table.index_probes, table.index_declined) == (1, 0)
            rows = db.execute("SELECT v FROM t WHERE id >= ?", params=(9,))
            assert len(rows) == ROWS - 9
            assert (table.index_probes, table.index_declined) == (1, 1)
            # The composing function called directly probes through
            # its access object, as every engine run does.
            engine = db.engine("hique")
            prepared = engine.prepare("SELECT v FROM t WHERE id = ?")
            ctx = build_context(prepared.plan, params=(9,))
            assert prepared.compiled.namespace["run_query"](
                ctx, StageAccess(prepared, ctx)
            ) == [(18,)]
            assert (table.index_probes, table.index_declined) == (2, 1)
            # A traced module has no probe+fetch pair: it scans.
            assert engine.execute(
                "SELECT v FROM t WHERE id = ?", probe=Probe(), params=(9,)
            ) == [(18,)]
            assert (table.index_probes, table.index_declined) == (2, 1)
        finally:
            db.close()

    def test_explain_and_explain_analyze_label_the_stage(self):
        db = _db()
        try:
            assert db.explain(
                "SELECT val FROM t WHERE id = 5"
            ).startswith("o0: ScanStage t via index(id) [= 5] prep=none")
            text = db.explain_analyze(POINT.replace("?", "5"))
            assert "ScanStage t via index(id) [= ?]" in text
            assert "index: 1 rids" in text
            text = db.explain_analyze("SELECT val FROM t WHERE id >= 0")
            assert "index declined:" in text and "scanned" in text
        finally:
            db.close()

    def test_metrics_count_probes_and_declines(self):
        db = _db()
        try:
            db.execute(POINT, params=(5,))
            db.execute(POINT, params=(6,))
            db.execute("SELECT val FROM t WHERE id >= 0")
            text = db.metrics_text()
            assert "repro_index_probes_total 2" in text
            assert "repro_index_declined_total 1" in text
        finally:
            db.close()


# -- the catalogue-level entry point ---------------------------------------------------------


class TestCreateIndex:
    def test_low_level_call_is_not_announced_but_database_call_is(self):
        db = Database()
        try:
            db.create_table("t", [Column("id", INT), Column("v", INT)])
            db.load_rows("t", [(i, i) for i in range(500)])
            db.analyze()
            select = "SELECT v FROM t WHERE id = 3"
            db.execute(select)
            db.table("t").create_index("id")
            db.execute(select)
            assert db.service.physical_plan(select).operators[0].index is None
            db.create_index("t", "id")  # idempotent build, still announced
            db.execute(select)
            assert db.service.physical_plan(select).operators[0].index
        finally:
            db.close()

    def test_unknown_names_raise_catalog_errors(self):
        db = _db()
        try:
            with pytest.raises(CatalogError):
                db.create_index("nope", "id")
            with pytest.raises(CatalogError):
                db.create_index("t", "nope")
        finally:
            db.close()

    def test_sql_dml_maintains_the_index(self):
        db = _db()
        try:
            table = db.table("t")
            index = table.index_on("id")
            assert db.execute(
                "UPDATE t SET val = ? WHERE id = ?", params=(1.25, 10)
            ) == [(1,)]
            assert db.execute("DELETE FROM t WHERE id >= 20 AND id < 25") == [
                (5,)
            ]
            assert db.execute(
                "INSERT INTO t VALUES (5000, 1, 2.0, 'new', DATE '2021-01-01')"
            ) == [(1,)]
            assert db.execute(
                "UPDATE t SET id = id + 10000 WHERE id = 5000"
            ) == [(1,)]
            assert table.index_on("id") is index  # patched, never rebuilt
            table.check_indexes()
            assert db.execute(POINT, params=(10,)) == [(10, 1.25, "t1")]
            assert db.execute(POINT, params=(22,)) == []
            assert db.execute(POINT, params=(15000,)) == [(15000, 2.0, "new")]
            with pytest.raises(ConstraintError):
                db.execute("UPDATE t SET tag = 'far too long' WHERE id = 1")
            table.check_indexes()
        finally:
            db.close()
