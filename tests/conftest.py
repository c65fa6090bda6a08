"""Shared fixtures: small catalogues, a tiny TPC-H instance, engines."""

from __future__ import annotations

import random

import pytest

from repro import Database
from repro.bench.tpch import generate_tpch
from repro.parallel.executor import ParallelExecutor
from repro.parallel.stats import ParallelConfig
from repro.storage import (
    Catalog,
    Column,
    DOUBLE,
    INT,
    Schema,
    char,
)

#: The config of a serial reference engine.  One worker takes the
#: serial walk before the scheduler's first question is asked, so
#: neither the ``scheduled`` fixture nor ``REPRO_EXECUTOR`` reaches it.
SERIAL = ParallelConfig(workers=1, executor="thread")


@pytest.fixture()
def scheduled(monkeypatch):
    """Pin the scheduler's first decision to "schedule".

    Production decides from the data: in-memory pages never wait, so
    over these small ``MemoryFile`` tables every run would take the
    serial walk.  Modules that assert the scheduler's mechanics
    (morsels, batches, merges, hand-offs) opt in with
    ``pytestmark = pytest.mark.usefixtures("scheduled")``; there is no
    product knob for this.
    """
    monkeypatch.setattr(
        ParallelExecutor,
        "waiting_table",
        staticmethod(lambda plan: "pinned by the test suite"),
    )


@pytest.fixture()
def simple_catalog() -> Catalog:
    """Two analysed tables: ``t`` (wide-ish) and ``u`` (joins on k)."""
    rng = random.Random(7)
    catalog = Catalog()
    t_schema = Schema(
        [
            Column("a", INT),
            Column("b", DOUBLE),
            Column("c", char(8)),
            Column("k", INT),
        ]
    )
    t = catalog.create_table("t", t_schema)
    t.load_rows(
        (i, i * 1.5, f"x{i % 3}", rng.randrange(10)) for i in range(200)
    )
    u_schema = Schema([Column("k", INT), Column("d", INT)])
    u = catalog.create_table("u", u_schema)
    u.load_rows((i % 10, i) for i in range(40))
    catalog.analyze()
    return catalog


@pytest.fixture()
def simple_db(simple_catalog: Catalog) -> Database:
    db = Database(catalog=simple_catalog)
    yield db
    db.close()


@pytest.fixture(scope="session")
def tpch_db() -> Database:
    """A tiny TPC-H instance shared across the session (read-only)."""
    db = Database(buffer_capacity=65_536)
    generate_tpch(db.catalog, scale_factor=0.001)
    return db


#: Query corpus used by the cross-engine differential tests.
DIFFERENTIAL_QUERIES = [
    "SELECT a, b FROM t",
    "SELECT a, b, c, k FROM t WHERE a < 100",
    "SELECT a FROM t WHERE a >= 150 AND k = 3",
    "SELECT c, count(*) AS n FROM t GROUP BY c",
    "SELECT c, sum(b) AS s, min(a) AS mn, max(a) AS mx, avg(b) AS av "
    "FROM t GROUP BY c ORDER BY s DESC",
    "SELECT k, count(*) AS n FROM t WHERE c = 'x1' GROUP BY k ORDER BY n "
    "DESC, k",
    "SELECT sum(a) AS s, count(*) AS n FROM t",
    "SELECT t.a, u.d FROM t, u WHERE t.k = u.k AND t.a < 30",
    "SELECT t.c, sum(u.d) AS s FROM t, u WHERE t.k = u.k GROUP BY t.c",
    "SELECT a, b FROM t ORDER BY b DESC LIMIT 7",
    "SELECT a, a + k AS apk, b * 2 AS b2 FROM t WHERE a < 20 ORDER BY apk",
    "SELECT k, sum(a + 1) AS s FROM t GROUP BY k ORDER BY k",
]
