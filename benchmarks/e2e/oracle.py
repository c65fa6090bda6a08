"""Correctness oracles that share nothing with the code generator.

* TPC-H workloads: the ``volcano`` iterator interpreter.
* ``shape_churn``: the brute-force ``repro.plan.reference.evaluate``.
* ``oltp_wire``: a plain-dict mirror per connection.

Rows are compared in the differential-fuzz suite's canonical form
(``tests/test_differential_fuzz.py``: sorted reprs, numerics as floats,
CHAR padding stripped), except that floats keep nine significant
digits where that suite keeps six decimals — TPC-H sums reach 1e9,
where one ulp already moves the sixth decimal.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Any, Iterable, Sequence

from repro.plan.reference import evaluate as reference_evaluate
from repro.sql.binder import Binder
from repro.sql.parser import parse

from benchmarks.e2e.streams import Op


def _norm(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(f"{float(value):.9g}")
    if isinstance(value, str):
        return value.rstrip()
    return value


def canonical(rows: Iterable[Sequence[Any]]) -> list[str]:
    return sorted(repr([_norm(v) for v in row]) for row in rows)


def digest(rows: Iterable[Sequence[Any]]) -> bytes:
    """A fixed-size stand-in for a result, so that holding every
    operation's outcome for post-hoc checking costs no memory that
    would show up in ``peak_rss_mb``."""
    text = "\n".join(canonical(rows))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()


def as_of(op: Op) -> str:
    """The read's text restricted to what it could see when it ran.

    ``dashboard_repeat``'s n-th inserted order carries n in
    ``o_shippriority`` and loaded orders carry 0, so bounding that
    column by the read's epoch rolls the final table back to the
    read's moment.  Q1 never touches ``orders``.
    """
    if op.template == "Q1":
        return op.sql
    return op.sql.replace("WHERE", f"WHERE o_shippriority <= {op.epoch} AND", 1)


def volcano_expected(db, op: Op) -> bytes:
    return digest(db.execute(as_of(op), engine="volcano"))


def reference_expected(db, op: Op) -> bytes:
    return digest(reference_evaluate(Binder(db.catalog).bind(parse(op.sql))))


class Mirror:
    """What one connection's rows must look like, kept in a dict."""

    def __init__(self, accounts: Iterable[tuple], branches: Iterable[tuple]):
        self.rows = {row[0]: tuple(row) for row in accounts}
        self.branches = {row[0]: tuple(row) for row in branches}

    def expected(self, op: Op) -> list[tuple]:
        """Apply ``op`` to the mirror and return the rows it must yield."""
        rows, p = self.rows, op.params
        if op.template == "point":
            return [rows[p[0]]] if p[0] in rows else []
        if op.template == "join":
            if p[0] not in rows:
                return []
            id_, branch, balance, _ = rows[p[0]]
            _, region, name = self.branches[branch]
            return [(id_, balance, name, region)]
        if op.template == "range":
            groups: dict[int, list[float]] = defaultdict(list)
            for id_ in range(p[0], p[1]):
                if id_ in rows:
                    groups[rows[id_][1]].append(rows[id_][2])
            return [(b, len(v), sum(v)) for b, v in groups.items()]
        if op.template == "insert":
            rows[p[0]] = tuple(p)
            return [(1,)]
        if op.template == "update":
            if p[1] not in rows:
                return [(0,)]
            id_, branch, _, status = rows[p[1]]
            rows[p[1]] = (id_, branch, p[0], status)
            return [(1,)]
        return [(1,)] if rows.pop(p[0], None) is not None else [(0,)]
