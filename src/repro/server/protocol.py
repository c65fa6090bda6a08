"""Wire protocol for the query server: newline-delimited JSON.

One frame per line, UTF-8 JSON, ``\\n`` terminated — trivially
debuggable (``nc`` + a text editor speak it) and cheap to parse, while
the one-object-per-line discipline still gives unambiguous framing
under pipelining.

Requests carry an ``op`` plus a client-chosen ``id`` that is echoed on
the response, so a client may pipeline several requests on one
connection and match answers by id::

    {"op": "query", "id": 1, "sql": "SELECT a FROM t WHERE a = ?",
     "params": [7]}

Responses are ``{"id": ..., "ok": true, ...}`` on success or
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}``
on failure.  Error codes are *typed* — ``over_capacity`` maps the
service's admission backpressure, ``timeout`` the server's per-query
deadline, ``shutting_down`` a drain in progress — so a load generator
can tell "back off and retry" from "your SQL is wrong" without string
matching.

Parameter values travel as JSON numbers and strings; DATE parameters
are passed as day ordinals (integers), exactly as the storage layer
holds them.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any, Iterator, Sequence

from repro.errors import (
    AdmissionError,
    BindError,
    ConstraintError,
    ExecutionError,
    LexerError,
    ParseError,
    ProtocolError,
    QueryTimeout,
    ReproError,
    ServerError,
    ServiceError,
    UnsupportedSqlError,
)

#: Protocol operations a client may request.
OPS = (
    "query",  # one-shot execution through the service cache
    "prepare",  # compile one statement shape, returns a handle id
    "execute",  # run a prepared handle with a parameter vector
    "close_stmt",  # drop a prepared handle
    "stats",  # service + server counters
    "ping",  # liveness probe
)

#: Typed error codes, most specific first — the order matters because
#: the exception hierarchy nests (AdmissionError is a ServiceError).
_ERROR_CODES: tuple[tuple[type[BaseException], str], ...] = (
    (AdmissionError, "over_capacity"),
    (QueryTimeout, "timeout"),
    (ParseError, "parse"),
    (LexerError, "parse"),
    (UnsupportedSqlError, "unsupported"),
    (ConstraintError, "bad_request"),
    (BindError, "bind"),
    (ProtocolError, "bad_request"),
    (ServerError, "server"),
    (ServiceError, "service"),
    (ExecutionError, "execution"),
    (ReproError, "error"),
)

#: code → exception class a client raises for it (inverse of the
#: table above; duplicate codes resolve to the first entry).
_CODE_EXCEPTIONS: dict[str, type[BaseException]] = {}
for _exc_type, _code in _ERROR_CODES:
    _CODE_EXCEPTIONS.setdefault(_code, _exc_type)
# ``bad_request`` covers both malformed frames and DML constraint
# violations; clients re-raise it as the protocol-level class.
_CODE_EXCEPTIONS["bad_request"] = ProtocolError
_CODE_EXCEPTIONS["shutting_down"] = ServerError
_CODE_EXCEPTIONS["internal"] = ServerError


def error_code(exc: BaseException) -> str:
    """The typed wire code for an exception (``internal`` if unknown)."""
    for exc_type, code in _ERROR_CODES:
        if isinstance(exc, exc_type):
            return code
    return "internal"


def exception_for(code: str, message: str) -> BaseException:
    """The client-side exception a typed error response raises as."""
    return _CODE_EXCEPTIONS.get(code, ServerError)(message)


def encode(frame: dict[str, Any]) -> bytes:
    """One frame → one UTF-8 JSON line (compact separators)."""
    return (
        json.dumps(frame, separators=(",", ":"), ensure_ascii=False)
        + "\n"
    ).encode("utf-8")


def decode(line: bytes) -> dict[str, Any]:
    """One received line → frame dict, or :class:`ProtocolError`."""
    try:
        frame = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


def ok_response(request_id: Any, **fields: Any) -> dict[str, Any]:
    return {"id": request_id, "ok": True, **fields}


def error_response(
    request_id: Any, code: str, message: str
) -> dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def rows_to_wire(rows: list[tuple]) -> list[list[Any]]:
    """Result rows → JSON-encodable lists (tuples do not survive JSON)."""
    return [list(row) for row in rows]


class Rows(Sequence):
    """Result rows off the wire: one flat tuple of values plus the width.

    Reads like the list of row tuples :meth:`Database.execute` returns
    — ``len``, indexing, slicing, iteration, ``==`` against any
    sequence of rows — but keeps only the values.  A list of ``n``
    row tuples spends 72 bytes per row on the tuple objects
    themselves; a caller that holds on to many results (a load
    harness keeping every outcome for later checking, a result cache)
    holds half as much this way.
    """

    __slots__ = ("_width", "_values")

    def __init__(self, rows: Sequence[Sequence[Any]] = ()):
        self._width = len(rows[0]) if rows else 0
        self._values = tuple(chain.from_iterable(rows))

    def __len__(self) -> int:
        return len(self._values) // self._width if self._width else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("row index out of range")
        width = self._width
        return self._values[index * width:(index + 1) * width]

    def __iter__(self) -> Iterator[tuple]:
        values, width = self._values, self._width
        return (
            values[start:start + width]
            for start in range(0, len(values), width or 1)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Rows, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == tuple(theirs) for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))


def rows_from_wire(rows: list[list[Any]]) -> Rows:
    """Decoded JSON rows → the row tuples :meth:`Database.execute`
    returns, as a :class:`Rows`.

    JSON round-trips ints, floats and strings exactly (floats via
    ``repr``-precision shortest form), so rows reconstructed here are
    value-identical to a direct in-process execution.
    """
    return Rows(rows)
