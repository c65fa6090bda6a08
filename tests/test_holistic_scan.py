"""Holistic scan programs: per-page decode, scan→aggregate fusion, CSE.

An untraced O2 scan decodes a page with one ``iter_unpack`` of a
per-scan ``Struct``; a map or global aggregate fed by an unprepared
scan also runs that scan loop itself (``aggregate_oM_scan``) whenever
the staging would not be kept; and aggregate bodies compute shared
accumulators and repeated argument subexpressions once.  Every path a
scan→aggregate pair can take — fused, staged + banked, cache hit,
index fetch, pinned-scheduled — must return the same rows, float
summation order included.  A repeated statement is answered from the
intermediate cache, so the staged paths are reached through writes
that make its answer stale (the staging is sighted, then banked) and
a new preparation that reads what the old one banked.
"""

from __future__ import annotations

import io
import re

import pytest

from repro import Column, Database, INT
from repro.cli import Shell
from repro.core.emitter import OPT_O0, OPT_O2
from repro.core.engine import HiqueEngine
from repro.core.executor import build_context
from repro.errors import MapDirectoryOverflow
from repro.plan.descriptors import ScanStage
from repro.plan.optimizer import PlannerConfig
from repro.storage import BOOL, DATE, DOUBLE, char, varchar

CHARS = ["", "ab ", "abc", " x", "zzzzz"]
VARCHARS = ["", "a", "tail  ", "mid dle", "12345678"]
ROWS = 3001  # 37 full pages of 81 tuples and a tail page of 4

Q1_LIKE = (
    "SELECT g, sum(d) AS sd, sum(e) AS se, sum(d * (1 - e)) AS dp, "
    "sum(d * (1 - e) * (1 + e)) AS ch, avg(d) AS ad, avg(e) AS ae, "
    "count(*) AS n FROM x WHERE dt <= ? GROUP BY g"
)
EMPTY_GLOBAL = (
    "SELECT sum(d) AS s, avg(d) AS a, count(*) AS n, min(i) AS mn, "
    "max(c) AS mx FROM x WHERE i < ?"
)
ALL_TYPES = (
    "SELECT b, c, v, count(*) AS n, min(dt) AS mdt, max(v) AS mv, "
    "min(c) AS mc, sum(i) AS si, avg(i) AS ai, max(d) AS md "
    "FROM x WHERE v <> ? GROUP BY b, c, v"
)
PARAMS = {Q1_LIKE: (9300,), EMPTY_GLOBAL: (0,), ALL_TYPES: ("zz",)}


def _row(n: int) -> tuple:
    return (
        n,
        float((n * 37) % 1000) / 7,
        (n % 10) / 100,
        9000 + n % 400,
        n % 3 == 0,
        CHARS[n % 5],
        VARCHARS[n % 5],
        n % 4,
    )


def _db() -> Database:
    db = Database()
    db.create_table(
        "x",
        [
            Column("i", INT),
            Column("d", DOUBLE),
            Column("e", DOUBLE),
            Column("dt", DATE),
            Column("b", BOOL),
            Column("c", char(5)),
            Column("v", varchar(8)),
            Column("g", INT),
        ],
    )
    db.load_rows("x", [_row(n) for n in range(ROWS)])
    db.analyze()
    return db


def _pin_scheduled(db: Database) -> None:
    db.engine("hique").parallel.waiting_table = lambda plan: "pinned"
    db.set_parallel(morsel_pages=4, min_pages=2, min_rows=256)


#: A row every filter below excludes: inserting it stales the answers
#: without changing them.
EXCLUDED = (5000, 1.0, 0.5, 9999, True, "x", "zz", 1)


def _stale(db: Database) -> None:
    db.load_rows("x", [EXCLUDED])


def _drop_plans(db: Database) -> None:
    """Forget every prepared plan: the next run prepares anew, so its
    answer is at a first sighting and it reads the stagings an earlier
    preparation banked (as after a plan-cache eviction)."""
    db.service.cache.invalidate()
    db.engine("hique").clear_cache()


def _pair_notes(db: Database) -> list[str]:
    return [
        note
        for note in db.last_exec_stats().notes
        if "aggregate o" in note
    ]


@pytest.fixture()
def db():
    db = _db()
    yield db
    db.close()


def test_the_tail_page_is_partly_filled(db):
    table = db.table("x")
    capacity = table.read_page(0).capacity
    assert table.num_pages == ROWS // capacity + 1
    assert 0 < table.read_page(table.num_pages - 1).num_tuples < capacity


@pytest.mark.parametrize("sql", [Q1_LIKE, EMPTY_GLOBAL, ALL_TYPES])
def test_every_path_returns_the_same_rows(db, sql):
    params = PARAMS[sql]
    fused = db.execute(sql, params=params)
    assert _pair_notes(db) == [
        "table 'x': scan fused into aggregate o1 (answer not stale)"
    ]
    assert repr(db.execute(sql, params=params)) == repr(fused)  # banks
    recycled = db.execute(sql, params=params)
    assert db.last_exec_stats().recycled == "hit"
    assert repr(recycled) == repr(fused)
    _stale(db)
    assert repr(db.execute(sql, params=params)) == repr(fused)
    assert _pair_notes(db) == [
        "table 'x': scan fused into aggregate o1 (first sighting)"
    ]
    _stale(db)
    banked = db.execute(sql, params=params)
    assert _pair_notes(db) == [
        "table 'x': staged for aggregate o1 (second sighting)"
    ]
    _drop_plans(db)
    hit = db.execute(sql, params=params)
    assert _pair_notes(db) == [
        "table 'x': staged for aggregate o1 (cache hit)"
    ]
    assert repr(banked) == repr(fused)
    assert repr(hit) == repr(fused)

    # The iterator engine sums an empty DOUBLE input to int 0; every
    # float it returns must equal ours exactly.
    volcano = db.execute(sql, engine="volcano", params=params)
    assert len(fused) == len(volcano)
    assert all(row in volcano for row in fused)

    _pin_scheduled(db)
    scheduled = db.execute(sql, params=params)
    assert db.last_exec_stats().scheduled is True
    assert repr(scheduled) == repr(fused)


def test_the_empty_global_aggregate_yields_null_avg(db):
    rows = db.execute(EMPTY_GLOBAL, params=(0,))
    assert rows == [(0.0, None, 0, None, None)]


def test_strings_decode_like_the_volcano_engine(db):
    rows = db.execute(ALL_TYPES, params=("zz",))
    assert {row[1] for row in rows} == {"", "ab", "abc", " x", "zzzzz"}
    assert {row[2] for row in rows} == {
        "", "a", "tail", "mid dle", "12345678"
    }


def test_a_new_parameter_is_a_first_sighting(db):
    for cutoff in (9100, 9200, 9300):
        rows = db.execute(Q1_LIKE, params=(cutoff,))
        assert _pair_notes(db)[0].endswith("(answer not stale)")
        volcano = db.execute(Q1_LIKE, engine="volcano", params=(cutoff,))
        assert sorted(map(repr, rows)) == sorted(map(repr, volcano))
    stats = db.intermediates.stats()
    assert (stats.sightings, stats.admitted, stats.entries) == (3, 0, 0)


def test_below_min_pages_and_without_a_cache_the_scan_fuses():
    db = Database()
    try:
        db.create_table("s", [Column("a", INT), Column("b", INT)])
        db.load_rows("s", [(i, i % 7) for i in range(300)])
        db.analyze()
        sql = "SELECT b, sum(a) AS s FROM s GROUP BY b"
        expected = db.execute(sql, engine="volcano")
        for _ in range(3):
            assert sorted(db.execute(sql)) == sorted(expected)
            assert _pair_notes(db)[0].endswith("(below min_pages)")
        db.engine("hique").parallel.intermediates = None
        assert sorted(db.execute(sql)) == sorted(expected)
        assert _pair_notes(db)[0].endswith("(no cache)")
    finally:
        db.close()


def test_an_index_fetch_feeds_the_staged_aggregate(db):
    db.create_index("x", "i")
    sql = "SELECT count(*) AS n, sum(d) AS s, max(v) AS m FROM x WHERE i = ?"
    for _ in range(3):  # first sighting, then two stale answers
        _stale(db)
        rows = db.execute(sql, params=(1234,))
        assert "table 'x': index: 1 rids" in db.last_exec_stats().notes
        assert _pair_notes(db) == [
            "table 'x': staged for aggregate o1 (index fetch)"
        ]
        assert rows == db.execute(sql, engine="volcano", params=(1234,))
    # A probe that declines falls back to the scan, fused.
    wide = "SELECT count(*) AS n, sum(d) AS s FROM x WHERE i >= ?"
    rows = db.execute(wide, params=(10,))
    assert any("index declined" in n for n in db.last_exec_stats().notes)
    assert _pair_notes(db)[0].endswith("(answer not stale)")
    assert rows == db.execute(wide, engine="volcano", params=(10,))


def test_explain_analyze_names_the_path(db):
    sql = "SELECT g, count(*) AS n FROM x GROUP BY g"
    text = db.explain_analyze(sql)
    assert "o0: ScanStage x prep=none filters=0  (fused into o1)" in text
    assert "fused scan→aggregate[answer not stale]" in text
    db.explain_analyze(sql)  # banks the answer
    _stale(db)
    assert "fused scan→aggregate[first sighting]" in db.explain_analyze(sql)
    _stale(db)
    text = db.explain_analyze(sql)
    assert "staged[second sighting]" in text
    assert "answer recycled (versions x=" in db.explain_analyze(sql)
    _drop_plans(db)
    assert "staged[cache hit]" in db.explain_analyze(sql)


def test_the_fused_step_is_timed_as_staging(db):
    db.execute(Q1_LIKE, params=(9300,))
    phases = [phase.name for phase in db.last_exec_stats().phases]
    assert phases == ["stage"]


def test_sighting_counters_reach_the_shell_and_metrics(db):
    sql = "SELECT g, count(*) AS n FROM x GROUP BY g"
    for _ in range(3):
        db.execute(sql)
    stats = db.intermediates.stats()
    assert (stats.sightings, stats.admitted, stats.sighting_evictions) == (
        1, 1, 0,
    )
    metrics = db.metrics_text()
    assert "repro_intermediate_cache_sightings_total" in metrics
    assert "repro_intermediate_cache_admitted_total" in metrics
    assert "repro_intermediate_cache_sighting_evictions_total" in metrics


def test_the_shell_cache_command_shows_the_admission_counts():
    shell = Shell(stdout=io.StringIO())
    shell.handle(".tpch 0.0005")
    for _ in range(2):
        shell.handle("SELECT count(*) AS n FROM lineitem")
    shell.handle(".cache")
    assert (
        "admission: 1 first sightings, 1 admitted, 0 sightings aged out"
        in shell.stdout.getvalue()
    )


def test_a_map_overflow_inside_the_fused_scan_replans(monkeypatch):
    db = Database()
    db.create_table("u", [Column("k", INT), Column("v", INT)])
    db.load_rows("u", [(i, i % 3) for i in range(4000)])
    db.analyze()
    # Now the data outgrows the analysed distinct count.
    db.load_rows("u", [(i + 4000, i % 883) for i in range(4000)])
    engine = HiqueEngine(
        db.catalog, planner_config=PlannerConfig(force_agg="map")
    )
    try:
        sql = "SELECT v, count(*) AS n FROM u GROUP BY v"
        prepared = engine.prepare(sql)
        fold = prepared.compiled.namespace["aggregate_o1_scan"]
        with pytest.raises(MapDirectoryOverflow):
            fold(build_context(prepared.plan))
        rows = engine.execute(sql)
        notes = engine.last_exec_stats.notes
        assert notes[0].startswith("map-directory overflow")
        assert sorted(rows) == sorted(db.execute(sql, engine="volcano"))
    finally:
        engine.close()
        db.close()


# -- the generated source ------------------------------------------------------


def _scan_functions(source: str) -> dict[str, str]:
    """``stage_oN`` (the scan loop, not its probe/fetch) → its body."""
    bodies = re.split(r"\n(?=def |\w+ = )", source)
    return {
        re.match(r"def (\w+)", body).group(1): body
        for body in bodies
        if re.match(r"def stage_o\d+\(", body)
    }


@pytest.mark.parametrize("sql", [Q1_LIKE, ALL_TYPES, EMPTY_GLOBAL])
def test_untraced_o2_decodes_a_page_per_call(db, sql):
    engine = db.engine("hique")
    prepared = engine.prepare(sql, use_cache=False)
    source = prepared.generated.source
    scans = [op for op in prepared.plan if isinstance(op, ScanStage)]
    functions = _scan_functions(source)
    assert len(functions) == len(scans)
    for body in functions.values():
        assert body.count(".iter_unpack(") == 1
        assert "unpack_from" not in body
    for scan in scans:
        assert source.count(f"_row_o{scan.op_id} = _struct.Struct(") == 1
    # The fused entry folds the same decode into the aggregate.
    assert "aggregate_o1_scan = aggregate_o1" in source
    assert "def aggregate_o1(ctx, rows=None):" in source


def test_q1_like_aggregates_share_accumulators_and_subexpressions(db):
    source = db.engine("hique").generate_source(Q1_LIKE)
    fused = source.split("def aggregate_o1(")[1].split("\ndef ")[0]
    # d * (1 - e) once per row in each loop; one count for avg and count.
    assert fused.count("_e0 = ") == 2
    assert fused.count("a_c") == fused.count("a_c4")
    assert "a_s4" not in fused  # avg(d) reads sum(d)'s accumulator


@pytest.mark.parametrize(
    "opt_level, traced", [(OPT_O2, True), (OPT_O0, False), (OPT_O0, True)]
)
def test_traced_and_o0_sources_keep_the_per_field_decode(db, opt_level, traced):
    for sql in (Q1_LIKE, ALL_TYPES, EMPTY_GLOBAL):
        source = db.engine("hique").generate_source(
            sql, opt_level=opt_level, traced=traced
        )
        assert "iter_unpack" not in source
        assert re.search(r"aggregate_o\d+_scan", source) is None
        assert "_e0" not in source
