"""Cross-engine differential tests: every engine must agree.

The reference evaluator (deliberately naive) defines correctness; the
HIQUE engine (O0 and O2), both Volcano configurations, the buffered
System X analogue and the vectorized DSM engine are all checked against
it on a shared query corpus and on hypothesis-generated tables.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.emitter import OPT_O0, OPT_O2
from repro.core.engine import HiqueEngine
from repro.engines.vectorized import VectorizedEngine
from repro.engines.volcano import VolcanoEngine
from repro.parallel.stats import ParallelConfig
from repro.plan.optimizer import PlannerConfig
from repro.plan.reference import evaluate as reference_evaluate
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage import Catalog, Column, INT, DOUBLE, Schema, char

from tests.conftest import DIFFERENTIAL_QUERIES


def canonical(rows):
    return sorted(repr([_norm(v) for v in row]) for row in rows)


def _norm(value):
    if isinstance(value, float):
        return round(value, 6)
    return value


def reference(catalog, sql):
    return reference_evaluate(Binder(catalog).bind(parse(sql)))


ENGINE_FACTORIES = {
    "hique-o2": lambda c: HiqueEngine(c, opt_level=OPT_O2),
    "hique-o0": lambda c: HiqueEngine(c, opt_level=OPT_O0),
    # Cost-model-routed placement: each batch may run on the thread or
    # the process backend, and rows must still match everyone else.
    "hique-o2-auto": lambda c: HiqueEngine(
        c,
        opt_level=OPT_O2,
        parallel=ParallelConfig(
            executor="auto",
            workers=3,
            morsel_pages=1,
            min_pages=1,
            min_rows=8,
        ),
    ),
    "volcano-generic": lambda c: VolcanoEngine(c, generic=True),
    "volcano-optimized": lambda c: VolcanoEngine(c),
    "systemx": lambda c: VolcanoEngine(c, buffered=True),
    "vectorized": lambda c: VectorizedEngine(c),
}


@pytest.mark.parametrize("engine_name", list(ENGINE_FACTORIES))
@pytest.mark.parametrize("sql", DIFFERENTIAL_QUERIES)
def test_engine_matches_reference(simple_catalog, engine_name, sql):
    engine = ENGINE_FACTORIES[engine_name](simple_catalog)
    assert canonical(engine.execute(sql)) == canonical(
        reference(simple_catalog, sql)
    )


FORCED_CONFIGS = [
    PlannerConfig(force_join="merge"),
    PlannerConfig(force_join="hybrid", force_partitions=8),
    PlannerConfig(force_join="hash"),
    # Keyed nested loops: the equi predicate rides as a residual (it
    # once silently vanished, turning the join into a cross product).
    PlannerConfig(force_join="nested"),
    PlannerConfig(force_agg="sort"),
    PlannerConfig(force_agg="hybrid", force_partitions=8),
    PlannerConfig(force_agg="map"),
    PlannerConfig(enable_join_teams=False),
]


@pytest.mark.parametrize("config_index", range(len(FORCED_CONFIGS)))
@pytest.mark.parametrize(
    "engine_name",
    ["hique-o2", "hique-o0", "hique-o2-auto", "volcano-optimized"],
)
def test_forced_algorithms_agree(simple_catalog, engine_name, config_index):
    config = FORCED_CONFIGS[config_index]
    engine = ENGINE_FACTORIES[engine_name](simple_catalog)
    for sql in (
        "SELECT t.a, u.d FROM t, u WHERE t.k = u.k AND t.a < 50",
        "SELECT c, sum(b) AS s, count(*) AS n FROM t GROUP BY c",
    ):
        if engine_name.startswith("hique"):
            got = engine.execute(sql, planner_config=config)
        else:
            got = engine.execute(sql, planner_config=config)
        assert canonical(got) == canonical(reference(simple_catalog, sql))


def test_empty_table_queries():
    catalog = Catalog()
    catalog.create_table(
        "t", Schema([Column("a", INT), Column("b", DOUBLE)])
    )
    catalog.analyze()
    for sql, expected_len in [
        ("SELECT a, b FROM t", 0),
        ("SELECT a, count(*) AS n FROM t GROUP BY a", 0),
        ("SELECT count(*) AS n FROM t", 1),
        ("SELECT sum(a) AS s, count(*) AS n FROM t", 1),
    ]:
        for factory in ENGINE_FACTORIES.values():
            engine = factory(catalog)
            assert len(engine.execute(sql)) == expected_len, sql


def test_single_row_table():
    catalog = Catalog()
    table = catalog.create_table(
        "t", Schema([Column("a", INT), Column("c", char(4))])
    )
    table.load_rows([(1, "x")])
    catalog.analyze()
    for name, factory in ENGINE_FACTORIES.items():
        engine = factory(catalog)
        assert engine.execute("SELECT a, c FROM t") == [(1, "x")], name


#: Pinned configurations from the extended fuzz grammar (self-joins,
#: empty/one-row tables, unsatisfiable filters → NULL-producing empty
#: aggregates).  The fuzz generates these shapes randomly; each class
#: is pinned here so a regression reproduces deterministically.
def _edge_catalog() -> Catalog:
    catalog = Catalog()
    t = catalog.create_table(
        "t",
        Schema([Column("a", INT), Column("b", DOUBLE),
                Column("c", char(4)), Column("k", INT)]),
    )
    t.load_rows(
        (i % 23, float(i % 17) / 4, f"s{i % 3}", i % 5)
        for i in range(180)
    )
    empty = catalog.create_table(
        "empty", Schema([Column("k", INT), Column("e", INT)])
    )
    assert empty.num_rows == 0
    one = catalog.create_table(
        "one", Schema([Column("k", INT), Column("e", INT)])
    )
    one.load_rows([(3, 42)])
    catalog.analyze()
    return catalog


EDGE_QUERIES = [
    # Self-join: one physical table under two bindings.
    "SELECT t1.a, t2.c FROM t t1, t t2 WHERE t1.k = t2.k AND t1.a < 4",
    "SELECT t1.k, count(*) AS n, max(t2.a) AS m FROM t t1, t t2 "
    "WHERE t1.k = t2.k GROUP BY t1.k ORDER BY t1.k",
    # Unsatisfiable filter: global aggregates over an empty input must
    # yield one row with NULL min/max/avg on every engine.
    "SELECT count(*) AS n, min(a) AS lo, max(a) AS hi, avg(b) AS m "
    "FROM t WHERE a > 9000",
    # Empty / one-row join sides.
    "SELECT t.a, empty.e FROM t, empty WHERE t.k = empty.k",
    "SELECT t.a, one.e FROM t, one WHERE t.k = one.k ORDER BY t.a",
    "SELECT count(*) AS n, sum(e) AS s FROM empty",
    "SELECT k, count(*) AS n FROM empty GROUP BY k",
    "SELECT k, e FROM one ORDER BY e DESC",
]


@pytest.mark.parametrize("sql", EDGE_QUERIES)
def test_fuzz_pinned_edge_regressions(sql):
    catalog = _edge_catalog()
    expected = canonical(reference(catalog, sql))
    for name, factory in ENGINE_FACTORIES.items():
        engine = factory(catalog)
        try:
            assert canonical(engine.execute(sql)) == expected, name
        finally:
            close = getattr(engine, "close", None)
            if callable(close):
                close()


@st.composite
def _random_tables(draw):
    n_t = draw(st.integers(1, 60))
    n_u = draw(st.integers(1, 30))
    t_rows = [
        (
            draw(st.integers(-20, 20)),
            draw(st.floats(-100, 100, allow_nan=False)),
            draw(st.sampled_from(["aa", "bb", "cc"])),
            draw(st.integers(0, 5)),
        )
        for _ in range(n_t)
    ]
    u_rows = [
        (draw(st.integers(0, 5)), draw(st.integers(-50, 50)))
        for _ in range(n_u)
    ]
    return t_rows, u_rows


@given(_random_tables())
@settings(max_examples=15, deadline=None)
def test_differential_on_random_tables(tables):
    t_rows, u_rows = tables
    catalog = Catalog()
    t = catalog.create_table(
        "t",
        Schema(
            [
                Column("a", INT),
                Column("b", DOUBLE),
                Column("c", char(4)),
                Column("k", INT),
            ]
        ),
    )
    t.load_rows(t_rows)
    u = catalog.create_table(
        "u", Schema([Column("k", INT), Column("d", INT)])
    )
    u.load_rows(u_rows)
    catalog.analyze()
    queries = [
        "SELECT c, count(*) AS n, min(a) AS mn FROM t GROUP BY c",
        "SELECT t.a, u.d FROM t, u WHERE t.k = u.k",
        "SELECT t.c, sum(u.d) AS s FROM t, u WHERE t.k = u.k GROUP BY t.c",
    ]
    for sql in queries:
        expected = canonical(reference(catalog, sql))
        for name, factory in ENGINE_FACTORIES.items():
            got = canonical(factory(catalog).execute(sql))
            assert got == expected, f"{name}: {sql}"


def test_residual_join_predicates_all_engines():
    """Two equi-join conjuncts between one table pair: the second one
    becomes a residual predicate that every backend must enforce."""
    catalog = Catalog()
    for name in ("x", "y"):
        table = catalog.create_table(
            name,
            Schema([Column("k1", INT), Column("k2", INT),
                    Column("v", INT)]),
        )
        table.load_rows((i % 4, i % 3, i) for i in range(60))
    catalog.analyze()
    sql = ("SELECT x.v, y.v FROM x, y WHERE x.k1 = y.k1 "
           "AND x.k2 = y.k2")
    expected = canonical(reference(catalog, sql))
    for name, factory in ENGINE_FACTORIES.items():
        assert canonical(factory(catalog).execute(sql)) == expected, name


def test_order_by_fully_deterministic(simple_catalog):
    """With a total order, even row order must agree across engines."""
    sql = "SELECT a, b FROM t WHERE a < 40 ORDER BY a DESC"
    expected = reference(simple_catalog, sql)
    for name, factory in ENGINE_FACTORIES.items():
        assert factory(simple_catalog).execute(sql) == expected, name


def test_limit_applies_after_sort(simple_catalog):
    sql = "SELECT a FROM t ORDER BY a DESC LIMIT 5"
    expected = [(199,), (198,), (197,), (196,), (195,)]
    for name, factory in ENGINE_FACTORIES.items():
        assert factory(simple_catalog).execute(sql) == expected, name
