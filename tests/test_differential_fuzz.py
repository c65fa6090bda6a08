"""Grammar-driven randomized differential testing across every backend.

A seeded generator builds random schemas/data sets and random queries —
filters, joins, self-joins, group-by, order-by, ``?`` parameters — and
asserts that every engine agrees with the naive reference evaluator,
and that the HIQUE engine's composed entry point (``run_compiled``),
serial walk (with a warm intermediate cache), thread-parallel,
process-parallel and ``executor="auto"`` executions (pipelined too, under
``REPRO_PIPELINE=1``) return *identical* row sequences (the parallel
subsystem's byte-identity guarantee) at both optimization levels.

The grammar deliberately stresses the degenerate regimes: a third
table ``v`` is empty, one-row or three rows; filters are occasionally
impossible (outside every column's value range), so global aggregates
run over empty inputs — the NULL-producing min/max/avg path — and
joins/sorts see empty sides; and self-joins (``FROM t t1, t t2``) bind
one physical table under two bindings.

A second sweep (``test_differential_fuzz_indexed``) loads one seeded
table into two catalogues, builds B+-tree indexes on seeded columns of
one of them (INT, DOUBLE, DATE and CHAR keys, with duplicates), and
asserts that every engine configuration returns the same rows with and
without the index — for equalities, open and closed ranges, keys absent
from the table, parameters and literals, and ranges wide enough that the
probe declines at run time and the scan runs after all.

This is litmus-style differential testing: the query surface is narrow
enough that any disagreement is a real bug in exactly one layer, and
the failing seed plus SQL are printed so a mismatch reproduces with a
two-line script.  The corpus is bounded (4 seeds × 50 queries) to keep
tier-1 fast; the thresholds are tuned way down (single-page morsels,
``min_rows=8``) so even these small tables genuinely exercise the
parallel scan/join/aggregate/sort paths on both task backends.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.core.emitter import OPT_O0, OPT_O2
from repro.core.engine import HiqueEngine
from repro.core.executor import run_compiled
from repro.engines.vectorized import VectorizedEngine
from repro.engines.volcano import VolcanoEngine
from repro.parallel.intermediates import IntermediateCache
from repro.parallel.stats import ParallelConfig
from repro.plan.reference import evaluate as reference_evaluate
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage import (
    Catalog,
    Column,
    DATE,
    DOUBLE,
    INT,
    Schema,
    char,
    ordinal_to_date,
)

SEEDS = [101, 202, 303, 404]
QUERIES_PER_SEED = 50

#: Thresholds low enough that the fuzz tables' few pages still fan out.
_PARALLEL = dict(workers=3, morsel_pages=1, min_pages=1, min_rows=8)


def canonical(rows):
    return sorted(repr([_norm(v) for v in row]) for row in rows)


def _norm(value):
    # Engines legitimately differ on int-vs-float for degenerate cases
    # (e.g. sum over an empty DOUBLE input), so numerics normalize to a
    # rounded float; the serial/thread/process byte-identity assertion
    # below stays exact.
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return round(float(value), 6)
    return value


def _build_catalog(rng: random.Random) -> Catalog:
    """A random two-table schema with join-friendly key overlap."""
    catalog = Catalog()
    num_keys = rng.choice([4, 7, 12])
    num_strings = rng.choice([3, 5])
    n_t = rng.randrange(150, 400)
    n_u = rng.randrange(40, 120)
    t = catalog.create_table(
        "t",
        Schema(
            [
                Column("a", INT),
                Column("b", DOUBLE),
                Column("c", char(rng.choice([4, 8]))),
                Column("k", INT),
            ]
        ),
    )
    t.load_rows(
        (
            rng.randrange(-50, 200),
            float(rng.randrange(-4_000, 4_000)) / 8,
            f"s{rng.randrange(num_strings)}",
            rng.randrange(num_keys),
        )
        for _ in range(n_t)
    )
    u = catalog.create_table(
        "u", Schema([Column("k", INT), Column("d", INT)])
    )
    u.load_rows(
        (rng.randrange(num_keys), rng.randrange(-100, 100))
        for _ in range(n_u)
    )
    # A degenerate third table: empty, one row, or three rows — the
    # edge every operator (scans, joins, sorts, global aggregates)
    # must survive without diverging from the reference.
    v = catalog.create_table(
        "v", Schema([Column("k", INT), Column("e", INT)])
    )
    v.load_rows(
        (rng.randrange(num_keys), rng.randrange(-20, 20))
        for _ in range(rng.choice([0, 1, 3]))
    )
    catalog.analyze()
    return catalog


@dataclass(frozen=True)
class _Shape:
    """One FROM-clause shape: tables plus its per-role column pools."""

    tables: str
    joins: tuple[str, ...]
    #: Columns usable in a plain select list.
    columns: tuple[str, ...]
    #: Columns usable as GROUP BY keys.
    groupable: tuple[str, ...]
    #: Numeric columns usable as aggregate arguments.
    numeric: tuple[str, ...]
    #: ``(column, kind)`` pools for filters; kind is "int", "double"
    #: or "string".
    filterable: tuple[tuple[str, str], ...]


_SHAPES = {
    "t": _Shape(
        tables="t",
        joins=(),
        columns=("t.a", "t.b", "t.c", "t.k"),
        groupable=("t.c", "t.k"),
        numeric=("t.a", "t.b"),
        filterable=(("t.a", "int"), ("t.k", "int"), ("t.b", "double"),
                    ("t.c", "string")),
    ),
    "tu": _Shape(
        tables="t, u",
        joins=("t.k = u.k",),
        columns=("t.a", "t.b", "t.c", "t.k", "u.k", "u.d"),
        groupable=("t.c", "t.k", "u.d"),
        numeric=("t.a", "t.b", "u.d"),
        filterable=(("t.a", "int"), ("t.k", "int"), ("t.b", "double"),
                    ("t.c", "string")),
    ),
    # Self-join: one physical table under two bindings — staging,
    # codegen and the interpreters must keep the bindings apart.
    "self": _Shape(
        tables="t t1, t t2",
        joins=("t1.k = t2.k",),
        columns=("t1.a", "t1.b", "t1.c", "t2.a", "t2.c", "t2.k"),
        groupable=("t1.c", "t2.c", "t1.k"),
        numeric=("t1.a", "t1.b", "t2.a"),
        filterable=(("t1.a", "int"), ("t2.a", "int"), ("t1.b", "double"),
                    ("t2.c", "string")),
    ),
    # The degenerate table, alone and joined: empty/one-row inputs.
    "v": _Shape(
        tables="v",
        joins=(),
        columns=("v.k", "v.e"),
        groupable=("v.k",),
        numeric=("v.e", "v.k"),
        filterable=(("v.k", "int"), ("v.e", "int")),
    ),
    "tv": _Shape(
        tables="t, v",
        joins=("t.k = v.k",),
        columns=("t.a", "t.c", "t.k", "v.e"),
        groupable=("t.c", "v.e"),
        numeric=("t.a", "t.b", "v.e"),
        filterable=(("t.a", "int"), ("t.b", "double"), ("t.c", "string")),
    ),
}


class _QueryGen:
    """Random queries over the fixed t/u/v shapes, with literal twins.

    ``generate()`` returns ``(sql, literal_sql, params)``: ``sql`` may
    contain one ``?`` placeholder with ``params`` holding its value,
    while ``literal_sql`` inlines the value — the interpreting engines
    and the reference evaluator run the literal twin, the codegen
    engines run both.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def _pick_shape(self) -> _Shape:
        roll = self.rng.random()
        if roll < 0.30:
            return _SHAPES["t"]
        if roll < 0.60:
            return _SHAPES["tu"]
        if roll < 0.75:
            return _SHAPES["self"]
        if roll < 0.87:
            return _SHAPES["tv"]
        return _SHAPES["v"]

    def generate(self) -> tuple[str, str, tuple]:
        rng = self.rng
        shape = self._pick_shape()
        aggregate = rng.random() < 0.40
        where, literal_where, params = self._where(shape)
        if aggregate:
            select, aliases, group = self._aggregate_select(shape)
            tail = f" GROUP BY {', '.join(group)}" if group else ""
        else:
            select, aliases = self._plain_select(shape)
            tail = ""
        order, total_order = self._order_by(aliases)
        # LIMIT only under a *total* order (every output column is a
        # sort key): with a partial order, engines may legitimately
        # keep different rows among ties at the cutoff, whereas under
        # a total order tied rows are identical in every projected
        # column, so any tie choice yields the same multiset.
        limit = (
            f" LIMIT {rng.randrange(1, 25)}"
            if total_order and rng.random() < 0.35
            else ""
        )
        sql = (
            f"SELECT {select} FROM {shape.tables}{where}{tail}"
            f"{order}{limit}"
        )
        literal = (
            f"SELECT {select} FROM {shape.tables}{literal_where}{tail}"
            f"{order}{limit}"
        )
        return sql, literal, params

    # -- pieces -------------------------------------------------------------------
    def _plain_select(self, shape: _Shape) -> tuple[str, list[str]]:
        rng = self.rng
        pool = list(shape.columns)
        chosen = rng.sample(pool, rng.randrange(1, min(4, len(pool)) + 1))
        items, aliases = [], []
        for i, column in enumerate(chosen):
            alias = f"c{i}"
            items.append(f"{column} AS {alias}")
            aliases.append(alias)
        if len(shape.numeric) >= 2 and rng.random() < 0.3:
            left, right = rng.sample(list(shape.numeric), 2)
            if rng.random() < 0.5:
                right = "2"
            op = rng.choice(["+", "-", "*"])
            alias = f"x{len(items)}"
            items.append(f"{left} {op} {right} AS {alias}")
            aliases.append(alias)
        return ", ".join(items), aliases

    def _aggregate_select(
        self, shape: _Shape
    ) -> tuple[str, list[str], list[str]]:
        rng = self.rng
        group_cols = rng.sample(
            list(shape.groupable),
            rng.randrange(0, min(3, len(shape.groupable) + 1)),
        )
        items, aliases = [], []
        for i, column in enumerate(group_cols):
            alias = f"g{i}"
            items.append(f"{column} AS {alias}")
            aliases.append(alias)
        for i in range(rng.randrange(1, 4)):
            func = rng.choice(["count", "sum", "min", "max", "avg"])
            alias = f"a{i}"
            arg = "*" if func == "count" else rng.choice(shape.numeric)
            items.append(f"{func}({arg}) AS {alias}")
            aliases.append(alias)
        return ", ".join(items), aliases, group_cols

    def _filter_value(self, kind: str):
        """A comparison literal; occasionally far outside the stored
        range, so the predicate is unsatisfiable and every downstream
        operator sees an empty input (the NULL-producing aggregate
        regime)."""
        rng = self.rng
        impossible = rng.random() < 0.15
        if kind == "double":
            if impossible:
                return float(rng.randrange(40_000, 90_000)) / 8
            return float(rng.randrange(-3_000, 3_000)) / 8
        if impossible:
            return rng.choice([-1, 1]) * rng.randrange(5_000, 9_000)
        return rng.randrange(-40, 180)

    def _where(self, shape: _Shape) -> tuple[str, str, tuple]:
        rng = self.rng
        conjuncts = list(shape.joins)
        literal_conjuncts = list(shape.joins)
        params: tuple = ()
        for _ in range(rng.randrange(0, 3)):
            column, kind = rng.choice(shape.filterable)
            if kind == "string":
                value = f"s{rng.randrange(5)}"
                conjuncts.append(f"{column} = '{value}'")
                literal_conjuncts.append(f"{column} = '{value}'")
                continue
            op = rng.choice(["<", "<=", ">", ">=", "="])
            value = self._filter_value(kind)
            if not params and rng.random() < 0.30:
                conjuncts.append(f"{column} {op} ?")
                params = (value,)
            else:
                conjuncts.append(f"{column} {op} {value}")
            literal_conjuncts.append(f"{column} {op} {value}")
        if not conjuncts:
            return "", "", params
        return (
            " WHERE " + " AND ".join(conjuncts),
            " WHERE " + " AND ".join(literal_conjuncts),
            params,
        )

    def _order_by(self, aliases: list[str]) -> tuple[str, bool]:
        """Returns ``(clause, total)`` — ``total`` when every output
        column is a sort key."""
        rng = self.rng
        if not aliases or rng.random() >= 0.40:
            return "", False
        keys = rng.sample(aliases, rng.randrange(1, len(aliases) + 1))
        rendered = [
            key + (" DESC" if rng.random() < 0.4 else "") for key in keys
        ]
        return " ORDER BY " + ", ".join(rendered), len(keys) == len(aliases)


class _Composed:
    """The generated composing function (the paper's Fig. 3) called
    directly: the serial reference every other HIQUE configuration must
    reproduce byte for byte."""

    def __init__(self, catalog: Catalog, opt_level: str):
        self.engine = HiqueEngine(catalog, opt_level=opt_level)

    def execute(self, sql, name="query", params=()):
        prepared = self.engine.prepare(sql, name=name)
        return run_compiled(
            prepared.compiled, prepared.plan, params=tuple(params)
        )

    def close(self) -> None:
        self.engine.close()


class _Thrice:
    """The serial walk with an intermediate cache, met in all its
    states: every query runs three times — first sighting, banking
    miss, cache hit — and must return the same sequence each time.

    ``paths`` counts which way each run of a scan→consumer pair went:
    the fused ``aggregate_oM_scan`` or ``join_oM_scan`` (a miss that
    will not bank), staged and banked, or staged from a cache hit."""

    _PATHS = {
        "scan fused into aggregate": "fused",
        "scan fused into join": "fused-probe",
        "(second sighting)": "banked",
        "(cache hit)": "hit",
    }

    def __init__(self, engine: HiqueEngine):
        self.engine = engine
        engine.parallel.intermediates = IntermediateCache()
        self.paths = Counter()

    def execute(self, sql, **kwargs):
        first = self._run(sql, kwargs)
        for _ in range(2):
            assert self._run(sql, kwargs) == first
        return first

    def _run(self, sql, kwargs):
        rows = self.engine.execute(sql, **kwargs)
        for note in self.engine.last_exec_stats.notes:
            if "aggregate o" not in note and "join o" not in note:
                continue
            for marker, path in self._PATHS.items():
                if marker in note:
                    self.paths[path] += 1
        return rows

    def close(self) -> None:
        self.engine.close()


def _pinned(engine: HiqueEngine) -> HiqueEngine:
    """Pin one engine's first decision to "schedule": these in-memory
    tables never have a page waiting, and the thread scheduler must
    stay byte-identical for the data that does."""
    engine.parallel.waiting_table = lambda plan: "pinned by the fuzz"
    return engine


def _engines(catalog: Catalog) -> dict:
    """Every engine configuration under test, keyed by display name."""
    thread = ParallelConfig(executor="thread", **_PARALLEL)
    return {
        "hique-o2": _Composed(catalog, OPT_O2),
        "hique-o0": _Composed(catalog, OPT_O0),
        # What production does over resident data: decline to schedule
        # (the cache step is opt-level independent: once is enough).
        "hique-o2-walk": _Thrice(
            HiqueEngine(catalog, opt_level=OPT_O2, parallel=thread)
        ),
        "hique-o0-walk": HiqueEngine(
            catalog, opt_level=OPT_O0, parallel=thread
        ),
        "hique-o2-thread": _pinned(
            HiqueEngine(catalog, opt_level=OPT_O2, parallel=thread)
        ),
        "hique-o0-thread": _pinned(
            HiqueEngine(catalog, opt_level=OPT_O0, parallel=thread)
        ),
        "hique-o2-process": HiqueEngine(
            catalog,
            opt_level=OPT_O2,
            parallel=ParallelConfig(executor="process", **_PARALLEL),
        ),
        "hique-o0-process": HiqueEngine(
            catalog,
            opt_level=OPT_O0,
            parallel=ParallelConfig(executor="process", **_PARALLEL),
        ),
        # Adaptive placement: the cost model routes each batch to the
        # thread or process backend mid-query (mixed placement).
        "hique-o2-auto": HiqueEngine(
            catalog,
            opt_level=OPT_O2,
            parallel=ParallelConfig(executor="auto", **_PARALLEL),
        ),
        "hique-o0-auto": HiqueEngine(
            catalog,
            opt_level=OPT_O0,
            parallel=ParallelConfig(executor="auto", **_PARALLEL),
        ),
        "volcano-generic": VolcanoEngine(catalog, generic=True),
        "volcano-optimized": VolcanoEngine(catalog),
        "systemx": VolcanoEngine(catalog, buffered=True),
        "vectorized": VectorizedEngine(catalog),
    }


class _DmlGen:
    """Seeded INSERT/UPDATE/DELETE statements over the fuzz schema,
    each paired with an equivalent mutation of a plain-Python mirror.

    The mirror is the oracle for the write path: after every statement
    the stored rows must equal the mirror exactly, independent of pages
    rewritten, indexes maintained or caches invalidated along the way.
    Values reuse the generator's distributions (exact binary-fraction
    doubles), so mirror comparisons stay ``==``-exact.
    """

    _OPS = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
            "=": lambda a, b: a == b}

    def __init__(self, rng: random.Random):
        self.rng = rng

    def generate(self):
        """Returns ``(sql, params, table, apply)`` where ``apply``
        mutates ``mirror[table]`` (a list of row tuples) in place."""
        roll = self.rng.random()
        if roll < 0.40:
            return self._insert()
        if roll < 0.70:
            return self._update()
        return self._delete()

    def _insert(self):
        rng = self.rng
        if rng.random() < 0.5:
            rows = [
                (
                    rng.randrange(-50, 200),
                    float(rng.randrange(-4_000, 4_000)) / 8,
                    f"s{rng.randrange(5)}",
                    rng.randrange(12),
                )
                for _ in range(rng.randrange(1, 4))
            ]
            values = ", ".join(
                f"({a}, {b}, '{c}', {k})" for a, b, c, k in rows
            )
            sql = f"INSERT INTO t VALUES {values}"
            params = ()
            if rng.random() < 0.5 and len(rows) == 1:
                sql = "INSERT INTO t VALUES (?, ?, ?, ?)"
                params = rows[0]
            table = "t"
        else:
            rows = [
                (rng.randrange(12), rng.randrange(-100, 100))
                for _ in range(rng.randrange(1, 4))
            ]
            values = ", ".join(f"({k}, {d})" for k, d in rows)
            sql = f"INSERT INTO u VALUES {values}"
            params = ()
            table = "u"

        def apply(mirror_rows):
            mirror_rows.extend(rows)

        return sql, params, table, apply

    def _update(self):
        rng = self.rng
        if rng.random() < 0.5:
            value = float(rng.randrange(-4_000, 4_000)) / 8
            key = rng.randrange(12)
            sql = f"UPDATE t SET b = {value} WHERE k = {key}"

            def apply(mirror_rows):
                for i, row in enumerate(mirror_rows):
                    if row[3] == key:
                        mirror_rows[i] = (row[0], value, row[2], row[3])

            return sql, (), "t", apply
        delta = rng.randrange(1, 9)
        op = rng.choice(list(self._OPS))
        key = rng.randrange(12)
        compare = self._OPS[op]
        sql = f"UPDATE u SET d = d + {delta} WHERE k {op} {key}"

        def apply(mirror_rows):
            for i, row in enumerate(mirror_rows):
                if compare(row[0], key):
                    mirror_rows[i] = (row[0], row[1] + delta)

        return sql, (), "u", apply

    def _delete(self):
        rng = self.rng
        if rng.random() < 0.5:
            value = rng.randrange(-50, 200)
            sql = f"DELETE FROM t WHERE a = {value}"

            def apply(mirror_rows):
                mirror_rows[:] = [r for r in mirror_rows if r[0] != value]

            return sql, (), "t", apply
        value = rng.randrange(-100, 100)
        op = rng.choice(["<", ">"])
        bound = value - 60 if op == "<" else value + 60
        compare = self._OPS[op]
        sql = f"DELETE FROM u WHERE d {op} {bound}"

        def apply(mirror_rows):
            mirror_rows[:] = [
                r for r in mirror_rows if not compare(r[1], bound)
            ]

        return sql, (), "u", apply


def _strip(value):
    return value.rstrip() if isinstance(value, str) else value


def _table_rows(db, name):
    width = len(db.table(name).schema)
    columns = ", ".join(
        f"{name}.{c.name} AS c{i}"
        for i, c in enumerate(db.table(name).schema.columns)
    )
    rows = db.execute(f"SELECT {columns} FROM {name}")
    assert all(len(r) == width for r in rows)
    return rows


@pytest.mark.parametrize("indexed", [False, True])
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_differential_fuzz_dml(seed: int, indexed: bool):
    """Seeded DML interleavings against a plain-Python mirror oracle.

    Runs through the Database facade so the full write path fires:
    catalogue write gate, version bumps, intermediate invalidation,
    DSM snapshot invalidation, read plans that survive it all.  After
    every statement the stored rows must equal the mirror, and a
    sampled read query must agree across engines and the reference
    evaluator.  With ``indexed``, every column a statement filters on
    carries a B+-tree, so the same interleavings run through the
    in-place indexed paths (and, for predicates matching too much of
    the table, decline back to the scan), and every index must agree
    with its heap after every statement.
    """
    from repro.api import Database

    rng = random.Random(seed * 7 + 1)
    catalog = _build_catalog(rng)
    db = Database(catalog=catalog)
    if indexed:
        for table, column in (("t", "a"), ("t", "k"), ("u", "k"), ("u", "d")):
            db.create_index(table, column)
    try:
        mirror = {
            "t": [tuple(map(_strip, r)) for r in _table_rows(db, "t")],
            "u": [tuple(r) for r in _table_rows(db, "u")],
        }
        dml_gen = _DmlGen(rng)
        query_gen = _QueryGen(rng)
        for index in range(25):
            sql, params, table, apply = dml_gen.generate()
            where = f"seed={seed} dml#{index}: {sql} params={params}"
            affected = db.execute(sql, params=params or None)
            before = len(mirror[table])
            apply(mirror[table])
            if sql.startswith("INSERT"):
                expected_count = len(mirror[table]) - before
            elif sql.startswith("DELETE"):
                expected_count = before - len(mirror[table])
            else:
                expected_count = None  # updates may rewrite in place
            if expected_count is not None:
                assert affected == [(expected_count,)], where
            stored = [
                tuple(map(_strip, r)) for r in _table_rows(db, table)
            ]
            assert canonical(stored) == canonical(mirror[table]), where
            db.table(table).check_indexes()
            if index % 5 == 4:
                _, literal, _ = query_gen.generate()
                expected = canonical(
                    reference_evaluate(
                        Binder(catalog).bind(parse(literal))
                    )
                )
                for kind in (
                    "hique", "hique-o0", "volcano", "volcano-generic",
                    "systemx", "vectorized",
                ):
                    got = db.execute(literal, engine=kind)
                    assert canonical(got) == expected, (
                        f"{kind} @ seed={seed} after dml#{index}: "
                        f"{literal}"
                    )
        if indexed:
            # Both indexed write paths ran: in place, and declined.
            tables = [db.table("t"), db.table("u")]
            assert sum(t.index_probes for t in tables) >= 5
            assert sum(t.index_declined for t in tables) >= 1
    finally:
        db.close()


# -- with vs without an index ---------------------------------------------------------

#: ``w``'s indexable columns and how a filter value for each is drawn.
_W_KINDS = {"i": "int", "x": "double", "d": "date", "s": "string"}
_W_DAY0 = 730_000  # storage ordinal of the first DATE value


def _build_w(rng: random.Random, index_columns: tuple[str, ...]):
    """Two catalogues over identical data; the second one indexed."""
    n = rng.randrange(500, 900)
    spread = rng.choice([n // 4, n // 2, n * 2])  # duplicates per key
    rows = [
        (
            rng.randrange(spread),
            float(rng.randrange(spread * 2)) / 4,
            ordinal_to_date(_W_DAY0 + rng.randrange(spread)),
            f"k{rng.randrange(min(spread, 400)):03d}",
            rng.randrange(8),
        )
        for _ in range(n)
    ]
    u_rows = [(k, rng.randrange(-9, 9)) for k in range(8) for _ in range(2)]
    catalogs = []
    for columns in ((), index_columns):
        catalog = Catalog()
        w = catalog.create_table(
            "w",
            Schema([
                Column("i", INT), Column("x", DOUBLE), Column("d", DATE),
                Column("s", char(6)), Column("k", INT),
            ]),
        )
        w.load_rows(rows)
        u = catalog.create_table(
            "u", Schema([Column("k", INT), Column("d", INT)])
        )
        u.load_rows(u_rows)
        for column in columns:
            catalog.create_index("w", column)
        catalog.analyze()
        catalogs.append(catalog)
    return catalogs[0], catalogs[1], spread


class _IndexQueryGen:
    """Filters aimed at ``w``'s columns: points, open and closed
    ranges, narrow and wide, present and absent keys."""

    def __init__(self, rng: random.Random, spread: int):
        self.rng = rng
        self.spread = spread

    def _value(self, kind: str, at: int):
        """Literal text and parameter value for key number ``at``
        (which may lie outside the stored range on either side)."""
        if kind == "int":
            return str(at), at
        if kind == "double":
            # Half the time between two stored keys (all are k/4).
            value = at / 2 + self.rng.choice([0.0, 0.125])
            return repr(value), value
        if kind == "date":
            day = ordinal_to_date(_W_DAY0 + at)
            return f"DATE '{day.isoformat()}'", _W_DAY0 + at
        return f"'k{at:03d}'", f"k{at:03d}"

    def generate(self) -> tuple[str, str, tuple]:
        rng = self.rng
        column = rng.choice(list(_W_KINDS))
        kind = _W_KINDS[column]
        at = rng.randrange(-5, self.spread + 5)
        width = rng.choice([0, 1, 3, 10, self.spread // 3, self.spread])
        shape = rng.choice(["point", "point", "open", "closed", "closed"])
        if shape == "point":
            bounds = [("=", at)]
        elif shape == "open":
            bounds = [(rng.choice(["<", "<=", ">", ">="]), at)]
        else:
            bounds = [
                (rng.choice([">", ">="]), at),
                (rng.choice(["<", "<="]), at + width),
            ]
        conjuncts, literal_conjuncts, params = [], [], []
        for op, key in bounds:
            text, value = self._value(kind, key)
            flipped = rng.random() < 0.2  # ``5 < w.i`` for ``w.i > 5``
            mirror = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
            render = (
                (lambda rhs: f"{rhs} {mirror[op]} w.{column}")
                if flipped
                else (lambda rhs: f"w.{column} {op} {rhs}")
            )
            literal_conjuncts.append(render(text))
            if rng.random() < 0.5:
                conjuncts.append(render("?"))
                params.append(value)
            else:
                conjuncts.append(render(text))
        if rng.random() < 0.3:  # a residual on another column
            extra = f"w.k {rng.choice(['<', '=', '>='])} {rng.randrange(8)}"
            conjuncts.append(extra)
            literal_conjuncts.append(extra)
        roll = rng.random()
        if roll < 0.4:
            head, tables, tail = "w.i AS c0, w.x AS c1, w.s AS c2", "w", ""
        elif roll < 0.7:
            head = "w.k AS g0, count(*) AS a0, sum(w.x) AS a1, min(w.d) AS a2"
            tables, tail = "w", " GROUP BY w.k"
        else:
            head, tables, tail = "w.i AS c0, w.s AS c1, u.d AS c2", "w, u", ""
            conjuncts.insert(0, "w.k = u.k")
            literal_conjuncts.insert(0, "w.k = u.k")
        if not tail and rng.random() < 0.3:
            tail = " ORDER BY c0 DESC, c1, c2 LIMIT 7"
        return (
            f"SELECT {head} FROM {tables} WHERE "
            + " AND ".join(conjuncts) + tail,
            f"SELECT {head} FROM {tables} WHERE "
            + " AND ".join(literal_conjuncts) + tail,
            tuple(params),
        )


@pytest.mark.parametrize(
    "seed, index_columns",
    [(505, ("i", "s")), (606, ("x", "d")), (707, ("i", "x", "d", "s"))],
)
def test_differential_fuzz_indexed(seed: int, index_columns):
    rng = random.Random(seed)
    plain_catalog, indexed_catalog, spread = _build_w(rng, index_columns)
    plain, indexed = _engines(plain_catalog), _engines(indexed_catalog)
    generator = _IndexQueryGen(rng, spread)
    w = indexed_catalog.table("w")
    try:
        for index in range(40):
            sql, literal, params = generator.generate()
            where = f"seed={seed} query#{index}: {sql} params={params}"
            expected = canonical(
                reference_evaluate(
                    Binder(plain_catalog).bind(parse(literal))
                )
            )
            for name in plain:
                rows = []
                for engine in (plain[name], indexed[name]):
                    if name.startswith("hique"):
                        rows.append(
                            engine.execute(
                                sql, name=f"q{index}", params=params
                            )
                        )
                    else:
                        rows.append(engine.execute(literal))
                assert canonical(rows[1]) == expected, f"{name} @ {where}"
                assert canonical(rows[0]) == expected, f"{name} @ {where}"
                if name.startswith("hique") and "ORDER BY" not in sql:
                    # Fetched rids arrive in heap order: not merely the
                    # same rows, the same sequence the scan yields.
                    assert rows[1] == rows[0], f"{name} order @ {where}"
        # The corpus met both sides of the run-time decision.
        assert w.index_probes >= 20 and w.index_declined >= 20
    finally:
        for engine in (*plain.values(), *indexed.values()):
            close = getattr(engine, "close", None)
            if callable(close):
                close()


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_fuzz(seed: int):
    rng = random.Random(seed)
    catalog = _build_catalog(rng)
    engines = _engines(catalog)
    generator = _QueryGen(rng)
    hique_names = [name for name in engines if name.startswith("hique")]
    try:
        for index in range(QUERIES_PER_SEED):
            sql, literal, params = generator.generate()
            where = f"seed={seed} query#{index}: {literal}"
            expected = canonical(
                reference_evaluate(
                    Binder(catalog).bind(parse(literal))
                )
            )
            rows_by_name = {}
            for name, engine in engines.items():
                if name.startswith("hique") and params:
                    got = engine.execute(
                        sql, name=f"q{index}", params=params
                    )
                elif name.startswith("hique"):
                    got = engine.execute(literal, name=f"q{index}")
                else:
                    got = engine.execute(literal)
                rows_by_name[name] = got
                assert canonical(got) == expected, f"{name} @ {where}"
            # Byte-identity across composed/walk/thread/process/auto, per
            # opt level: same engine, same plan, different execution
            # substrate (auto may mix substrates within one query).
            for level in ("o2", "o0"):
                base = rows_by_name[f"hique-{level}"]
                for suffix in ("walk", "thread", "process", "auto"):
                    name = f"hique-{level}-{suffix}"
                    assert rows_by_name[name] == base, f"{name} @ {where}"
            assert any(
                name in rows_by_name for name in hique_names
            )  # corpus sanity
        # The byte-identity oracle above met the fused scan→aggregate
        # and scan→probe functions and both staged paths.
        paths = engines["hique-o2-walk"].paths
        assert paths["fused"] and paths["banked"] and paths["hit"], paths
        assert paths["fused-probe"], paths
    finally:
        for engine in engines.values():
            close = getattr(engine, "close", None)
            if callable(close):
                close()
