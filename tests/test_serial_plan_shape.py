"""Serial plan shape: build/probe hash joins and late string decode.

Without a forced join algorithm the optimizer plans an equi-join as a
build/probe hash join: the smaller input staged as fine partitions,
the larger scanned unprepared right before the join, which then probes
inside that scan's page loop (``join_oM_scan``) whenever the staging
would not be kept.  CHAR/VARCHAR columns compared with ``=`` / ``<>``
against a literal or parameter are compared as padded bytes, and a
fused map aggregate keys its directories on them.  Every path a probe
can take — fused, staged + banked, cache hit, index fetch — returns
the same rows, float summation order included, and
the same rows as the iterator engine built from the same plan.  A
repeated statement is answered from the intermediate cache, so the
staged paths are reached through writes to the *build* side that make
the answer stale while the probe table stays current.
"""

from __future__ import annotations

import hashlib
import io
from collections import Counter

import pytest

from repro import Column, Database, DOUBLE, INT
from repro.bench.synth import make_group_table, make_join_pair, make_team_tables
from repro.bench.tpch import QUERIES, generate_tpch
from repro.cli import Shell
from repro.core.emitter import OPT_O0, OPT_O2
from repro.core.generator import CodeGenerator
from repro.plan.descriptors import Join
from repro.plan.optimizer import Optimizer, PlannerConfig
from repro.plan.reference import evaluate as reference_evaluate
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage import Catalog, char, varchar

FLAGS = ["A", "R", "N"]
TAGS = ["", "ab", "tail ", "x y", "12345678"]
FACT_ROWS = 3000  # 31 pages: above the cache's default min_pages
DIM_KEYS = 150  # keys 0..149, each twice; fact keys reach 199

JOIN_ROWS = (
    "SELECT f.id AS id, f.d AS d, m.name AS name, m.w AS w "
    "FROM fact f, dim m WHERE f.k = m.k AND f.id < ?"
)
JOIN_AGG = (
    "SELECT m.name AS name, sum(f.d) AS s, count(*) AS n "
    "FROM fact f, dim m WHERE f.k = m.k AND f.flag = ? GROUP BY m.name"
)
#: Two predicates between the same pair: the second is a residual.
RESIDUAL = (
    "SELECT f.id AS id, f.tag AS tag, m.w AS w FROM fact f, dim m "
    "WHERE f.k = m.k AND f.j = m.j AND f.d > ?"
)
PARAMS = {JOIN_ROWS: (2500,), JOIN_AGG: ("R",), RESIDUAL: (10.0,)}


def _fact(n: int) -> tuple:
    return (
        n,
        (n * 7) % 200,
        n % 3,
        FLAGS[n % 3],
        TAGS[n % 5],
        float((n * 37) % 1000) / 7,
    )


def _dim(n: int) -> tuple:
    return (n % DIM_KEYS, n % 4, f"n{n % 7}", n / 4)


def _db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.create_table(
        "fact",
        [
            Column("id", INT),
            Column("k", INT),
            Column("j", INT),
            Column("flag", char(1)),
            Column("tag", varchar(8)),
            Column("d", DOUBLE),
        ],
    )
    db.load_rows("fact", [_fact(n) for n in range(FACT_ROWS)])
    db.create_table(
        "dim",
        [
            Column("k", INT),
            Column("j", INT),
            Column("name", char(6)),
            Column("w", DOUBLE),
        ],
    )
    db.load_rows("dim", [_dim(n) for n in range(2 * DIM_KEYS)])
    db.analyze()
    return db


def _stale(db: Database) -> None:
    """Stale every answer over ``dim`` with a row no fact key joins."""
    db.load_rows("dim", [(99_999, 0, "zz", 0.0)])


def _drop_plans(db: Database) -> None:
    """Forget every prepared plan: the next run prepares anew, so its
    answer is at a first sighting and it reads the stagings an earlier
    preparation banked (as after a plan-cache eviction)."""
    db.service.cache.invalidate()


def _join_notes(db: Database) -> list[str]:
    return [
        note for note in db.last_exec_stats().notes if "join o" in note
    ]


@pytest.fixture()
def db():
    db = _db()
    yield db
    db.close()


@pytest.fixture(scope="module")
def tpch():
    db = Database()
    generate_tpch(db.catalog, scale_factor=0.001)
    yield db
    db.close()


# -- the plan ------------------------------------------------------------------


def test_the_smaller_input_builds_and_the_probe_scan_comes_last(db):
    text = db.explain(JOIN_ROWS)
    assert text.splitlines()[:3] == [
        "o0: ScanStage m prep=partition filters=0",
        "o1: ScanStage f prep=none filters=1",
        "o2: Join hash build=o0 probe=o1",
    ]


def test_q3_and_q10_probe_inside_their_big_scans(tpch):
    q3 = tpch.explain(QUERIES["Q3"])
    assert "o2: Join hash build=o0 probe=o1" in q3
    assert "o3: Restage prep=partition of 2" in q3
    assert "o5: Join hash build=o3 probe=o4" in q3
    assert "o4: ScanStage lineitem prep=none" in q3
    q10 = tpch.explain(QUERIES["Q10"])
    assert "o8: Join hash build=o6 probe=o7" in q10
    assert "o7: ScanStage lineitem prep=none" in q10
    for text in (q3, q10):
        assert "prep=sort" not in text and "merge" not in text


# -- every path, the same rows ---------------------------------------------------------


@pytest.mark.parametrize("sql", [JOIN_ROWS, JOIN_AGG, RESIDUAL])
def test_every_path_returns_the_same_rows(db, sql):
    params = PARAMS[sql]
    fused = db.execute(sql, params=params)
    assert _join_notes(db) == [
        "table 'f': scan fused into join o2 (answer not stale)"
    ]
    assert repr(db.execute(sql, params=params)) == repr(fused)  # banks
    recycled = db.execute(sql, params=params)
    assert db.last_exec_stats().recycled == "hit"
    _stale(db)
    assert repr(db.execute(sql, params=params)) == repr(fused)
    assert _join_notes(db) == [
        "table 'f': scan fused into join o2 (first sighting)"
    ]
    _stale(db)
    banked = db.execute(sql, params=params)
    assert _join_notes(db) == [
        "table 'f': staged for join o2 (second sighting)"
    ]
    _stale(db)
    hit = db.execute(sql, params=params)
    assert _join_notes(db) == ["table 'f': staged for join o2 (cache hit)"]
    assert fused
    assert repr(recycled) == repr(fused)
    assert repr(banked) == repr(fused)
    assert repr(hit) == repr(fused)

    volcano = db.execute(sql, engine="volcano", params=params)
    if sql is JOIN_AGG:
        assert sorted(volcano) == sorted(fused)
    else:
        # No ORDER BY: both engines emit the probe rows' order.
        assert volcano == fused


@pytest.mark.parametrize("name", ["Q3", "Q10"])
def test_tpch_paths_agree_with_each_other_and_volcano(tpch, name):
    sql = QUERIES[name]
    runs = [tpch.execute(sql) for _ in range(3)]
    assert runs[0]
    assert repr(runs[1]) == repr(runs[0]) and repr(runs[2]) == repr(runs[0])
    assert tpch.execute(sql, engine="volcano") == runs[0]
    o0 = tpch.execute(sql, engine="hique-o0")
    assert sorted(map(repr, o0)) == sorted(map(repr, runs[0]))


def test_tpch_lineitem_probe_takes_all_three_paths(tpch):
    sql = QUERIES["Q3"].replace("'1995-03-15'", "'1995-03-17'")
    want = tpch.execute(sql)
    assert tpch.execute(sql) == want  # banks the answer
    customer = tpch.table("customer")
    whys = []
    for custkey in range(10**6, 10**6 + 3):
        # A customer with no orders stales Q3's answer, not its rows,
        # and leaves lineitem current.
        tpch.load_rows("customer", [(custkey, *customer.row_at(0, 0)[1:])])
        assert tpch.execute(sql) == want
        (note,) = [
            n for n in tpch.last_exec_stats().notes
            if n.startswith("table 'lineitem'") and "join o5" in n
        ]
        whys.append(note)
    assert whys == [
        "table 'lineitem': scan fused into join o5 (first sighting)",
        "table 'lineitem': staged for join o5 (second sighting)",
        "table 'lineitem': staged for join o5 (cache hit)",
    ]


def test_duplicate_keys_on_both_sides(db):
    rows = db.execute(
        "SELECT f.id AS id, m.w AS w FROM fact f, dim m WHERE f.k = m.k"
    )
    fact_keys = Counter(_fact(n)[1] for n in range(FACT_ROWS))
    dim_keys = Counter(_dim(n)[0] for n in range(2 * DIM_KEYS))
    assert max(fact_keys.values()) > 1 and max(dim_keys.values()) > 1
    assert len(rows) == sum(
        count * dim_keys[key] for key, count in fact_keys.items()
    )


def test_a_build_side_larger_than_its_estimate():
    """``big.x = ?`` is estimated at half of big, below mid's size, so
    big builds — but the parameter keeps all of big but one row."""
    db = Database()
    try:
        db.create_table(
            "big", [Column("k", INT), Column("x", INT), Column("d", DOUBLE)]
        )
        db.load_rows(
            "big", [(i % 2000, 0 if i else 1, i / 8) for i in range(3000)]
        )
        db.create_table("mid", [Column("k", INT), Column("e", DOUBLE)])
        db.load_rows("mid", [(i, i / 4) for i in range(2000)])
        db.analyze()
        sql = (
            "SELECT big.d AS d, mid.e AS e FROM big, mid "
            "WHERE big.k = mid.k AND big.x = ?"
        )
        prepared = db.engine("hique").prepare(sql)
        join = next(op for op in prepared.plan if isinstance(op, Join))
        assert prepared.plan.op(join.build_op).binding == "big"
        rows = db.execute(sql, params=(0,))
        assert len(rows) == 2999 > db.table("mid").num_rows
        assert rows == db.execute(sql, engine="volcano", params=(0,))
        bound = Binder(db.catalog).bind(parse(sql.replace("?", "0")))
        assert sorted(rows) == sorted(reference_evaluate(bound))
    finally:
        db.close()


def test_an_empty_build_probes_nothing(db):
    sql = (
        "SELECT f.id AS id, m.w AS w FROM fact f, dim m "
        "WHERE f.k = m.k AND m.name = ?"
    )
    for _ in range(3):  # fused, banked, hit
        assert db.execute(sql, params=("none",)) == []
    assert db.execute(sql, engine="volcano", params=("none",)) == []
    source = db.engine("hique").generate_source(
        sql.replace("?", "'none'")
    )
    assert "if not build:\n        return out" in source


def test_a_self_join(db):
    sql = (
        "SELECT a.k AS ak, b.k AS bk, b.w AS w FROM dim a, dim b "
        "WHERE a.j = b.k AND a.k < ?"
    )
    rows = db.execute(sql, params=(20,))
    assert rows
    assert any("join o" in n for n in db.last_exec_stats().notes)
    assert rows == db.execute(sql, engine="volcano", params=(20,))
    bound = Binder(db.catalog).bind(parse(sql.replace("?", "20")))
    assert sorted(rows) == sorted(reference_evaluate(bound))


def test_an_index_fetched_probe_side_runs_the_staged_probe(db):
    db.create_index("fact", "id")
    sql = (
        "SELECT f.id AS id, m.w AS w FROM fact f, dim m "
        "WHERE f.k = m.k AND f.id >= ? AND f.id < ?"
    )
    for _ in range(3):  # first sighting, then two stale answers
        _stale(db)
        rows = db.execute(sql, params=(100, 110))
        notes = db.last_exec_stats().notes
        assert "table 'f': index: 10 rids" in notes
        assert _join_notes(db) == [
            "table 'f': staged for join o2 (index fetch)"
        ]
        assert rows == db.execute(sql, engine="volcano", params=(100, 110))
    assert rows


def test_the_oltp_join_shape_builds_from_the_index_fetch():
    db = Database()
    try:
        db.create_table(
            "accounts",
            [Column("id", INT), Column("branch", INT),
             Column("balance", DOUBLE), Column("status", char(8))],
        )
        db.create_table(
            "branches",
            [Column("bid", INT), Column("region", INT),
             Column("name", char(16))],
        )
        db.load_rows(
            "accounts",
            [(i, i % 100, i / 4, "open" if i % 3 else "closed")
             for i in range(2000)],
        )
        db.load_rows(
            "branches", [(b, b % 7, f"branch{b:03d}") for b in range(100)]
        )
        db.table("accounts").create_index("id")
        db.analyze()
        sql = (
            "SELECT a.id AS id, a.balance AS balance, b.name AS name, "
            "b.region AS region FROM accounts a, branches b "
            "WHERE a.branch = b.bid AND a.id = ?"
        )
        assert "Join hash build=o0 probe=o1" in db.explain(sql)
        for account in (7, 1234, 1999):
            rows = db.execute(sql, params=(account,))
            notes = db.last_exec_stats().notes
            assert "table 'a': index: 1 rids" in notes
            assert (
                "table 'b': scan fused into join o2 (below min_pages)"
                in notes
            )
            assert rows == [
                (account, account / 4, f"branch{account % 100:03d}",
                 account % 100 % 7)
            ]
    finally:
        db.close()


# -- strings stay bytes until they are output ------------------------------------------


CHAR_VALUES = ["", "ab", "abc", " x", "abcd", "ab "]


@pytest.fixture()
def strings():
    db = Database()
    db.create_table(
        "s",
        [Column("id", INT), Column("c", char(4)), Column("v", varchar(6)),
         Column("d", DOUBLE)],
    )
    db.load_rows(
        "s",
        [
            (i, CHAR_VALUES[i % 6], CHAR_VALUES[(i // 6) % 6], i / 8)
            for i in range(2400)
        ],
    )
    db.analyze()
    yield db
    db.close()


@pytest.mark.parametrize("op", ["=", "<>"])
@pytest.mark.parametrize(
    "value", ["", "ab", "ab ", " x", "abcd", "abcde", "zz"],
    ids=["empty", "plain", "trailing-space", "leading-space", "full-width",
         "wider", "absent"],
)
def test_char_equality_matches_the_decoded_comparison(strings, op, value):
    literal = f"SELECT id, c FROM s WHERE c {op} '{value}'"
    counted = f"SELECT count(*) AS n, sum(d) AS t FROM s WHERE v {op} ?"
    want = strings.execute(literal, engine="volcano")
    # The engine itself: literals stay literals in the generated code.
    assert strings.engine("hique").execute(literal) == want
    assert strings.execute(
        f"SELECT id, c FROM s WHERE c {op} ?", params=(value,)
    ) == want
    for _ in range(3):  # fused, banked, hit
        assert strings.execute(counted, params=(value,)) == strings.execute(
            counted, engine="volcano", params=(value,)
        )


def test_a_literal_compiles_to_padded_bytes_and_is_never_decoded(strings):
    engine = strings.engine("hique")
    source = engine.generate_source("SELECT id FROM s WHERE c = 'ab'")
    assert "v1 == b'ab  '" in source
    assert ".decode()" not in source
    # No stored value decodes to a literal wider than the column.
    source = engine.generate_source("SELECT id FROM s WHERE c <> 'abcde'")
    assert "if not (" not in source
    source = engine.generate_source("SELECT id FROM s WHERE c = 'abcde'")
    assert "if not (False):" in source
    # A parameter is padded once per call, not per row.
    source = engine.generate_source("SELECT id, c FROM s WHERE c = ?")
    assert "_c0 = _rt.char_bytes(ctx.params[0], 4)" in source
    assert "if not (v1 == _c0):" in source
    # Ranges keep decoding: padded byte order is not string order.
    source = engine.generate_source("SELECT id FROM s WHERE c < 'b'")
    assert "v1 = v1.rstrip(_SP).decode()" in source


@pytest.mark.parametrize("opt_level, traced", [
    (OPT_O2, True), (OPT_O0, False), (OPT_O0, True),
])
def test_traced_and_o0_sources_decode_every_string(strings, opt_level, traced):
    source = strings.engine("hique").generate_source(
        "SELECT c, count(*) AS n FROM s WHERE v = 'ab' GROUP BY c",
        opt_level=opt_level, traced=traced,
    )
    assert "char_bytes" not in source and "b'ab" not in source
    assert "_scan = " not in source


def test_a_char_grouped_map_aggregate_outputs_decoded_keys(strings):
    sql = "SELECT c, count(*) AS n, sum(d) AS t FROM s WHERE v = ? GROUP BY c"
    source = strings.engine("hique").generate_source(sql)
    fused = source.split("if rows is None:")[1].split("else:")[0]
    assert "dir0.get(v1, -1)" in fused  # keyed on the padded bytes
    assert "_keys[_g] = (v1.rstrip(_SP).decode(),)" in fused
    runs = [strings.execute(sql, params=("abc",)) for _ in range(2)]
    whys = []
    for n in range(3):  # fused, staged + banked, staged from a hit
        if n < 2:
            # A row the filter excludes stales the answer.
            strings.load_rows("s", [(9000 + n, "ab", "zz", 0.0)])
        else:
            _drop_plans(strings)
        runs.append(strings.execute(sql, params=("abc",)))
        whys += [
            note.rsplit("(", 1)[1]
            for note in strings.last_exec_stats().notes
            if "aggregate o" in note
        ]
    assert whys == ["first sighting)", "second sighting)", "cache hit)"]
    assert all(repr(run) == repr(runs[0]) for run in runs)
    assert {row[0] for row in runs[0]} == {"", "ab", "abc", " x", "abcd"}
    assert sorted(runs[0]) == sorted(
        strings.execute(sql, engine="volcano", params=("abc",))
    )


# -- observability ---------------------------------------------------------------------


def test_explain_analyze_names_the_fused_probe(db):
    text = db.explain_analyze(JOIN_ROWS.replace("?", "2500"))
    assert "o1: ScanStage f prep=none filters=1  (fused into o2)" in text
    assert "fused scan→join[answer not stale]" in text
    assert "o2: Join hash build=o0 probe=o1" in text
    db.explain_analyze(JOIN_ROWS.replace("?", "2500"))  # banks the answer
    _stale(db)
    text = db.explain_analyze(JOIN_ROWS.replace("?", "2500"))
    assert "fused scan→join[first sighting]" in text


def test_the_fused_probe_is_one_node_timed_as_staging():
    db = _db(trace=True)
    try:
        db.execute(JOIN_ROWS, params=(2500,))
        names = [
            span.name for span in db.last_trace().root.walk()
            if span.category == "node"
        ]
        assert names == [
            "ScanStage o0", "ScanStage o1+Join o2", "Project o3"
        ]
        phases = [phase.name for phase in db.last_exec_stats().phases]
        assert phases == ["stage", "final"]
    finally:
        db.close()


def test_the_shell_source_shows_the_probe_entry():
    shell = Shell(stdout=io.StringIO())
    shell.handle(".tpch 0.0005")
    shell.handle(f".source {' '.join(QUERIES['Q3'].split())}")
    out = shell.stdout.getvalue()
    assert "def join_o5(ctx, build, rows=None):" in out
    assert "join_o5_scan = join_o5" in out


# -- the paper-facing forced configurations --------------------------------------------

_JOIN_SQL = (
    "SELECT o.k, o.f1, i.k, i.f2 FROM outer_t o, inner_t i WHERE o.k = i.k"
)
_AGG_SQL = "SELECT k, sum(f1) AS s1, sum(f2) AS s2 FROM events GROUP BY k"
_TEAM_SQL = (
    "SELECT fact.f1, dim0.f1, dim1.f1 FROM fact, dim0, dim1 "
    "WHERE fact.k = dim0.k AND fact.k = dim1.k"
)
_LEVELS = {
    "O2": (OPT_O2, False), "O2-traced": (OPT_O2, True),
    "O0": (OPT_O0, False), "O0-traced": (OPT_O0, True),
}
#: sha256[:16] of the generated source, per
#: (query, forced config, level): the Table II and Figure 5–7 cells
#: (synthetic INT tables),
#: and TPC-H under forced joins where the memory simulation and O0
#: code quality are measured.  A change that moves one of these moves
#: a paper-facing cell and must say so.
_FORCED_SOURCE = {
    "join-merge-O2": "672301237b1f3a41",
    "join-merge-O2-traced": "39a0797722261c2f",
    "join-merge-O0": "9b3b479e2914316f",
    "join-merge-O0-traced": "0188b1f2cffac185",
    "join-hybrid-O2": "e159a2a45b3c0fae",
    "join-hybrid-O2-traced": "d941a5077c156f16",
    "join-hybrid-O0": "ca9f95037c2adeac",
    "join-hybrid-O0-traced": "453d5fdc868e9fde",
    "join-hash-O2": "8ba3e89eb39478d4",
    "join-hash-O2-traced": "d9154069a6673009",
    "join-hash-O0": "abf834eddcf5dbd1",
    "join-hash-O0-traced": "6bcc2cb3d86b28cd",
    "join-nested-O2": "06738f6ad1951a82",
    "join-nested-O2-traced": "3f52cb448c46ed24",
    "join-nested-O0": "55206de9c2b3ad2a",
    "join-nested-O0-traced": "e3039705266d8aa9",
    "agg-hybrid-O2": "403657752aefa407",
    "agg-hybrid-O2-traced": "6c7c472778d09c1d",
    "agg-hybrid-O0": "8a5beba19a766833",
    "agg-hybrid-O0-traced": "3822a333b6214aa1",
    "agg-map-O2": "c5f7a6893eac3b4e",
    "agg-map-O2-traced": "b3ecd9a6ed6df4da",
    "agg-map-O0": "6c15d0b3d8ffbb46",
    "agg-map-O0-traced": "5e192a8a59f88896",
    "agg-sort-O2": "ddbf9a1be941bf08",
    "agg-sort-O2-traced": "20e81b91353a5d35",
    "agg-sort-O0": "dc6eb3abb41d5af0",
    "agg-sort-O0-traced": "81f311b31fca4dae",
    "team-merge-O2": "8750e92dc9f28388",
    "team-merge-O2-traced": "53d4e61fae302850",
    "team-merge-O0": "19308f7ac10bc06d",
    "team-merge-O0-traced": "d6b7d91b74657200",
    "team-hybrid-O2": "c5efd20e8ecb3919",
    "team-hybrid-O2-traced": "afc7672889791906",
    "team-hybrid-O0": "cf46ddb372d1dd31",
    "team-hybrid-O0-traced": "be08861768e42a49",
    "Q1-merge-O2-traced": "e7c677c7ebf6e175",
    "Q1-merge-O0": "60e002cdb8e44d45",
    "Q1-merge-O0-traced": "75f66d505f4974d0",
    "Q3-merge-O2-traced": "53e1d72049f7f2a3",
    "Q3-merge-O0": "37a23ca67ac83e7e",
    "Q3-merge-O0-traced": "fd072f4ab582f104",
    "Q3-hybrid-O2-traced": "fbc37f164178e018",
    "Q3-hybrid-O0": "2b0cda03a788db44",
    "Q3-hybrid-O0-traced": "923588e8f0979da0",
    "Q3-hash-O2-traced": "153cd17420503fd3",
    "Q3-hash-O0": "89f823d54964418d",
    "Q3-hash-O0-traced": "67a92a2d9f3597b9",
    "Q10-merge-O2-traced": "8762fbbf016d6f47",
    "Q10-merge-O0": "837bfb1fb3f464bf",
    "Q10-merge-O0-traced": "8a0d41466f4938be",
    "Q10-hybrid-O2-traced": "09095a93dce2572a",
    "Q10-hybrid-O0": "64055b6a3c54be3e",
    "Q10-hybrid-O0-traced": "ec88c52a64bd196a",
    "Q10-hash-O2-traced": "c06495044b7a95dd",
    "Q10-hash-O0": "f01c4345722ca05c",
    "Q10-hash-O0-traced": "a01bfdc8238636d2",
}


def _source_digest(catalog, sql, config, level) -> str:
    plan = Optimizer(catalog, config).plan(Binder(catalog).bind(parse(sql)))
    opt_level, traced = _LEVELS[level]
    generated = CodeGenerator().generate(
        plan, opt_level=opt_level, traced=traced
    )
    return hashlib.sha256(generated.source.encode()).hexdigest()[:16]


def test_forced_configurations_generate_unchanged_source():
    join = Catalog()
    make_join_pair(join, 240, 240, 24)
    agg = Catalog()
    make_group_table(agg, 2000, 200)
    team = Catalog()
    make_team_tables(team, big_rows=600, small_rows=60, num_small=2)
    tpch = Catalog()
    generate_tpch(tpch, scale_factor=0.001)
    cases = {
        "join": (join, _JOIN_SQL, {
            "merge": PlannerConfig(force_join="merge"),
            "hybrid": PlannerConfig(force_join="hybrid", force_partitions=64),
            "hash": PlannerConfig(force_join="hash"),
            "nested": PlannerConfig(force_join="nested"),
        }),
        "agg": (agg, _AGG_SQL, {
            "hybrid": PlannerConfig(force_agg="hybrid", force_partitions=64),
            "map": PlannerConfig(force_agg="map"),
            "sort": PlannerConfig(force_agg="sort"),
        }),
        "team": (team, _TEAM_SQL, {
            name: PlannerConfig(
                enable_join_teams=True, force_join=name, force_partitions=64
            )
            for name in ("merge", "hybrid")
        }),
    }
    for query in ("Q1", "Q3", "Q10"):
        cases[query] = (tpch, QUERIES[query], {
            name: PlannerConfig(force_join=name)
            for name in ("merge", "hybrid", "hash")
        })
    got = {}
    for prefix, (catalog, sql, configs) in cases.items():
        for name, config in configs.items():
            for level in _LEVELS:
                key = f"{prefix}-{name}-{level}"
                if key in _FORCED_SOURCE:
                    got[key] = _source_digest(catalog, sql, config, level)
    assert got == _FORCED_SOURCE
