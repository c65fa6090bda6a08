"""Seeded statement streams: pure functions of (workload, seed, scale).

Every stream is an endless iterator of :class:`Op`; the runner takes
the first ``warmup`` operations untimed and then as many as its fixed
count or its time limit allows, so a traced pass and a second run with
the same seed replay the same statements.  The program under test only
ever receives the generated SQL text and parameters.
"""

from __future__ import annotations

import datetime
import json
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.bench.tpch.dbgen import CUSTOMERS_PER_SF, ORDERS_PER_SF
from repro.bench.tpch.queries import Q1, Q3, Q10

READ = "read"
WRITE = "write"

#: Data sizes and operation counts per ``--scale``.  ``ops`` is the
#: timed phase's fixed operation count (per connection for
#: ``oltp_wire``), sized on a 2-core box to last 20-30 s at ``full``;
#: ``warmup`` is the untimed prefix.
#:
#: ``adhoc_sf`` 0.005 is 30 k ``lineitem`` rows in about 1 250 heap pages
#: (inside the 4096-page pool); every operation banks 2-4 MB of staged
#: rows that are never reused, so the 32 MiB intermediate cache
#: overflows within ten operations.  ``dashboard_sf`` 0.0025 keeps the
#: panel's 24 statements' staged rows (26 MB, measured) inside that
#: cache while ``customer`` (17 pages) still clears the 16-page
#: threshold below which a scan is not staged in parallel, hence not
#: cached, and counts a miss on every execution.
SCALES = {
    "smoke": {
        "adhoc_sf": 0.002,
        "dashboard_sf": 0.001,
        "accounts": 2_000,
        "ops": {
            "adhoc_analytic": 30,
            "dashboard_repeat": 120,
            "shape_churn": 60,
            "oltp_wire": 40,
        },
        "warmup": {
            "adhoc_analytic": 6,
            "dashboard_repeat": 24,
            "shape_churn": 70,
            "oltp_wire": 10,
        },
    },
    "full": {
        "adhoc_sf": 0.005,
        "dashboard_sf": 0.0025,
        "accounts": 20_000,
        "ops": {
            "adhoc_analytic": 540,
            "dashboard_repeat": 6_000,
            "shape_churn": 9_000,
            "oltp_wire": 900,
        },
        "warmup": {
            "adhoc_analytic": 12,
            "dashboard_repeat": 24,
            "shape_churn": 80,
            "oltp_wire": 40,
        },
    },
}

#: ``oltp_wire`` streams exist for this many connections whatever the
#: host; a run uses the first ``W`` of them, so the stream does not
#: depend on the machine.
OLTP_LANES = 4
BRANCHES = 100


@dataclass(frozen=True)
class Op:
    """One operation of a stream."""

    kind: str  #: READ or WRITE
    template: str  #: which statement family, e.g. "Q3" or "point"
    sql: str
    #: Values for the ``?`` placeholders (``oltp_wire`` only).
    params: tuple = ()
    #: Panel binding (``dashboard_repeat``); -1 elsewhere.
    binding: int = -1
    #: Inserts that precede this operation (``dashboard_repeat``).
    epoch: int = 0


def rng_for(*parts) -> random.Random:
    # str seeds hash through sha512, so the sequence is the same in
    # every process (unlike hash()-based seeding).
    return random.Random("/".join(str(p) for p in parts))


def _shuffled_rounds(rng: random.Random, round_: Sequence) -> Iterator:
    """``round_`` over and over, each time in a new seeded order: every
    seed gets exactly the same mix, so no metric moves with it."""
    while True:
        yield from rng.sample(round_, len(round_))


def _date(rng: random.Random, first: str, last: str) -> str:
    lo = datetime.date.fromisoformat(first).toordinal()
    hi = datetime.date.fromisoformat(last).toordinal()
    return datetime.date.fromordinal(rng.randrange(lo, hi + 1)).isoformat()


# -- TPC-H templates (the paper's Fig. 8 queries) ---------------------------

_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
TPCH_TEMPLATES = ("Q1", "Q3", "Q10")


def _tpch_sql(template: str, rng: random.Random) -> str:
    """One of the repo's TPC-H texts with fresh literals drawn in it.

    The ranges are the specification's (Q1 DELTA 60-120 days, Q3 any
    segment and a date in early 1995, Q10 a quarter starting in
    1993-94) widened to single days, so that draws rarely coincide
    while one template's operations still cost about the same — which
    keeps a latency percentile from moving with the seed.
    """
    if template == "Q1":
        sql = Q1.replace("1998-12-01", _date(rng, "1998-09-01", "1998-12-31"))
        return sql.replace("'90'", f"'{rng.randrange(60, 121)}'")
    if template == "Q3":
        sql = Q3.replace("BUILDING", rng.choice(_SEGMENTS))
        return sql.replace("1995-03-15", _date(rng, "1995-01-01", "1995-06-30"))
    return Q10.replace("1993-10-01", _date(rng, "1993-02-01", "1995-01-01"))


def adhoc_analytic(seed: int, scale: str) -> Iterator[Op]:
    """Q1/Q3/Q10 in seeded order, new literals on every operation."""
    rng = rng_for(seed, "adhoc_analytic")
    seen: set[str] = set()
    for template in _shuffled_rounds(rng, TPCH_TEMPLATES):
        sql = _tpch_sql(template, rng)
        while sql in seen:  # warm-up and timed inputs stay disjoint
            sql = _tpch_sql(template, rng)
        seen.add(sql)
        yield Op(READ, template, sql)


#: ``dashboard_repeat``: bindings per template, and one write per this
#: many operations.
PANEL = 8
WRITE_EVERY = 40


def dashboard_panel() -> list[Op]:
    """The 24 statements a dashboard refreshes: 8 bindings x 3 templates.

    The panel belongs to the workload, not to the seed: which statement
    holds the top Zipf rank of its template decides the median read
    (ten seeded panels put it anywhere from 3.2 to 4.4 ms), and a
    metric must not move with the seed.  The seed orders the refreshes
    and draws the inserted rows.
    """
    rng = rng_for("dashboard_repeat", "panel")
    panel: list[Op] = []
    for template in TPCH_TEMPLATES:
        texts: list[str] = []
        while len(texts) < PANEL:
            sql = _tpch_sql(template, rng)
            if sql not in texts:
                texts.append(sql)
        panel.extend(
            Op(READ, template, sql, binding=i) for i, sql in enumerate(texts)
        )
    return panel


def _order_insert(rng: random.Random, scale: str, epoch: int) -> str:
    """A single-row INSERT INTO orders that later reads can see.

    The row reuses an existing order key (so it joins that order's
    lineitems) under a seeded customer and a date inside the Q10
    panel's range, and carries its own sequence number in
    ``o_shippriority`` (0 on every loaded row) — which is what lets the
    oracle evaluate a read as of the moment it ran.
    """
    sf = SCALES[scale]["dashboard_sf"]
    order_key = rng.randrange(1, max(int(ORDERS_PER_SF * sf), 300) + 1)
    cust_key = rng.randrange(1, max(int(CUSTOMERS_PER_SF * sf), 30) + 1)
    date = _date(rng, "1993-01-01", "1995-05-31")
    return (
        "INSERT INTO orders VALUES "
        f"({order_key}, {cust_key}, 'O', {rng.randrange(1000, 400000) / 4}, "
        f"DATE '{date}', '3-MEDIUM', 'Clerk#{rng.randrange(1, 1001):09d}', "
        f"{epoch}, 'dashboard trickle')"
    )


def dashboard_repeat(seed: int, scale: str) -> Iterator[Op]:
    """Zipf-skewed repeats of a fixed panel, plus a write trickle.

    Warm-up is the panel itself, once each: the steady state of a
    dashboard is "every panel statement has run before".
    """
    panel = dashboard_panel()
    yield from panel
    rng = rng_for(seed, "dashboard_repeat", "stream")
    weights = [1.0 / (rank + 1) for rank in range(PANEL)]
    epoch = 0
    for count, template in enumerate(
        _shuffled_rounds(rng, range(len(TPCH_TEMPLATES))), 1
    ):
        if count % WRITE_EVERY == 0:
            epoch += 1
            yield Op(
                WRITE, "insert_order", _order_insert(rng, scale, epoch),
                epoch=epoch,
            )
            continue
        binding = rng.choices(range(PANEL), weights)[0]
        op = panel[template * PANEL + binding]
        yield Op(READ, op.template, op.sql, binding=binding, epoch=epoch)


# -- shape_churn: a grammar of structurally distinct reads -------------------

#: The three synthetic tables (rows, distinct keys); every table has the
#: columns k, f1..f8 of ``repro.bench.synth``.
CHURN_TABLES = {"facts": (600, 200), "dims": (200, 200), "events": (300, 100)}
_CHURN_FROM = (
    (("facts",), ()),
    (("dims",), ()),
    (("events",), ()),
    (("facts", "dims"), ("facts.k = dims.k",)),
    (("events", "facts"), ("events.k = facts.k",)),
    (("events", "dims"), ("events.k = dims.k",)),
    (("facts", "dims", "events"), ("facts.k = dims.k", "facts.k = events.k")),
)
_CHURN_COLUMNS = ("k",) + tuple(f"f{i}" for i in range(1, 9))
_COMPARISONS = ("<", "<=", ">", ">=")


def _churn_shape(rng: random.Random) -> tuple[str, list]:
    """One random statement as (text with ``{}`` holes, hole values).

    Holes stand where the service's literal parameterization will put
    parameters, so two statements with the same holed text share a plan
    and count as one shape.
    """
    tables, joins = rng.choice(_CHURN_FROM)
    columns = [f"{t}.{c}" for t in tables for c in _CHURN_COLUMNS]
    payload = [c for c in columns if not c.endswith(".k")]
    items: list[str] = []
    aliases: list[str] = []
    tail = ""
    if rng.random() < 0.45:
        keys = rng.sample(columns, rng.randrange(0, 3))
        for i, column in enumerate(keys):
            items.append(f"{column} AS g{i}")
            aliases.append(f"g{i}")
        for i in range(rng.randrange(1, 4)):
            func = rng.choice(("count", "sum", "min", "max", "avg"))
            arg = "*" if func == "count" else rng.choice(payload)
            items.append(f"{func}({arg}) AS a{i}")
            aliases.append(f"a{i}")
        if keys:
            tail = " GROUP BY " + ", ".join(keys)
    else:
        for i, column in enumerate(rng.sample(columns, rng.randrange(1, 5))):
            items.append(f"{column} AS c{i}")
            aliases.append(f"c{i}")
        if rng.random() < 0.4:
            left, right = rng.sample(payload, 2)
            if rng.random() < 0.4:
                right = "2"
            items.append(f"{left} {rng.choice('+-*')} {right} AS x")
            aliases.append("x")
    conjuncts = list(joins)
    values: list = []
    for _ in range(rng.randrange(0, 3)):
        column = rng.choice(columns)
        if column.endswith(".k"):
            values.append(rng.randrange(20, 180))
        else:
            values.append(rng.randrange(100_000, 900_000))
        conjuncts.append(f"{column} {rng.choice(_COMPARISONS)} {{}}")
    where = " WHERE " + " AND ".join(conjuncts) if conjuncts else ""
    order = ""
    if rng.random() < 0.4:
        keys = rng.sample(aliases, rng.randrange(1, len(aliases) + 1))
        order = " ORDER BY " + ", ".join(
            key + (" DESC" if rng.random() < 0.4 else "") for key in keys
        )
        # LIMIT only under a total order: among ties at the cut-off
        # engines may legitimately keep different rows.
        if len(keys) == len(aliases) and rng.random() < 0.35:
            order += f" LIMIT {rng.randrange(1, 25)}"
    text = (
        f"SELECT {', '.join(items)} FROM {', '.join(tables)}"
        f"{where}{tail}{order}"
    )
    return text, values


def shape_churn(seed: int, scale: str) -> Iterator[Op]:
    """Reads no two of which share a plan."""
    rng = rng_for(seed, "shape_churn")
    seen: set[str] = set()
    while True:
        text, values = _churn_shape(rng)
        if text in seen:
            continue
        seen.add(text)
        yield Op(READ, "churn", text.format(*values), binding=len(seen) - 1)


# -- oltp_wire: prepared point/range/join reads and single-row DML -----------

OLTP_SQL = {
    "point": (
        "SELECT a.id AS id, a.branch AS branch, a.balance AS balance, "
        "a.status AS status FROM accounts a WHERE a.id = ?"
    ),
    "range": (
        "SELECT a.branch AS branch, count(*) AS n, sum(a.balance) AS total "
        "FROM accounts a WHERE a.id >= ? AND a.id < ? GROUP BY a.branch"
    ),
    "join": (
        "SELECT a.id AS id, a.balance AS balance, b.name AS name, "
        "b.region AS region FROM accounts a, branches b "
        "WHERE a.branch = b.bid AND a.id = ?"
    ),
    "insert": "INSERT INTO accounts VALUES (?, ?, ?, ?)",
    "update": "UPDATE accounts SET balance = ? WHERE id = ?",
    "delete": "DELETE FROM accounts WHERE id = ?",
}
#: The mix: operations of each kind per round of 50 — 80 % reads
#: (60/12/8 % point/range/join), 20 % writes (12/6/2 %
#: insert/update/delete).  Rounds are shuffled, not drawn, so every seed
#: and every connection carries exactly this mix; an UPDATE or DELETE
#: costs as much as forty point reads, and drawing them would make
#: throughput a function of the seed.
OLTP_ROUND = (
    ("point", 30), ("range", 6), ("join", 4),
    ("insert", 6), ("update", 3), ("delete", 1),
)
_STATUSES = ("open", "hold", "vip")
RANGE_WIDTH = 200


def oltp_tables(seed: int, scale: str) -> tuple[list[tuple], list[tuple]]:
    """Initial ``accounts`` and ``branches`` rows."""
    rng = rng_for(seed, "oltp_wire", "data")
    accounts = [
        (
            i,
            rng.randrange(BRANCHES),
            rng.randrange(400_000) / 4,
            rng.choice(_STATUSES),
        )
        for i in range(SCALES[scale]["accounts"])
    ]
    branches = [(b, b % 7, f"branch{b:03d}") for b in range(BRANCHES)]
    return accounts, branches


def lane_ids(scale: str, lane: int) -> range:
    """The loaded account ids only connection ``lane`` reads and writes."""
    width = SCALES[scale]["accounts"] // OLTP_LANES
    return range(lane * width, (lane + 1) * width)


def oltp_wire(seed: int, scale: str, lane: int) -> Iterator[Op]:
    """One connection's operations, all inside its own id range.

    New rows get ids from a range of the lane's own above every loaded
    id, so connections never touch each other's rows and a per-lane
    mirror predicts every result.
    """
    rng = rng_for(seed, "oltp_wire", lane)
    own = lane_ids(scale, lane)
    round_ = [name for name, count in OLTP_ROUND for _ in range(count)]
    inserted: list[int] = []
    next_id = 1_000_000 * (lane + 1)
    for template in _shuffled_rounds(rng, round_):
        if template == "point" or template == "join":
            if inserted and rng.random() < 0.1:
                params = (rng.choice(inserted),)
            else:
                params = (rng.choice(own),)
        elif template == "range":
            lo = rng.randrange(own.start, own.stop - RANGE_WIDTH + 1)
            params = (lo, lo + RANGE_WIDTH)
        elif template == "insert":
            params = (
                next_id,
                rng.randrange(BRANCHES),
                rng.randrange(400_000) / 4,
                rng.choice(_STATUSES),
            )
            inserted.append(next_id)
            next_id += 1
        elif template == "update":
            params = (rng.randrange(400_000) / 4, rng.choice(own))
        else:
            if inserted and rng.random() < 0.5:
                params = (inserted.pop(rng.randrange(len(inserted))),)
            else:
                params = (rng.choice(own),)
        kind = READ if template in ("point", "range", "join") else WRITE
        yield Op(kind, template, OLTP_SQL[template], params)


# -- the runner's view ------------------------------------------------------


def lanes(workload: str, seed: int, scale: str, width: int = 1):
    """The workload's streams: one per concurrent caller."""
    if workload == "oltp_wire":
        return [oltp_wire(seed, scale, lane) for lane in range(width)]
    single = {
        "adhoc_analytic": adhoc_analytic,
        "dashboard_repeat": dashboard_repeat,
        "shape_churn": shape_churn,
    }[workload]
    return [single(seed, scale)]


def dump(workload: str, seed: int, scale: str, out) -> None:
    """Write warm-up + timed operations at the scale's fixed count, one
    JSON object per line, so two invocations diff byte for byte."""
    sizes = SCALES[scale]
    total = sizes["warmup"][workload] + sizes["ops"][workload]
    width = OLTP_LANES if workload == "oltp_wire" else 1
    for lane, stream in enumerate(lanes(workload, seed, scale, width)):
        for index, op in zip(range(total), stream):
            record = {
                "lane": lane,
                "index": index,
                "phase": (
                    "warmup" if index < sizes["warmup"][workload] else "timed"
                ),
                "kind": op.kind,
                "template": op.template,
                "sql": " ".join(op.sql.split()),
                "params": list(op.params),
            }
            out.write(json.dumps(record, sort_keys=True) + "\n")
