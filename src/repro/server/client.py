"""Clients for the query server: one async, one blocking.

:class:`AsyncQueryClient` is what the load harness uses — thousands of
instances share one event loop, each holding a connection with its own
prepared-statement handles.  :class:`QueryClient` wraps a plain socket
for shells, scripts and tests that want synchronous calls.

Query results are :class:`repro.server.protocol.Rows`: a read-only
sequence of row tuples, value-identical to what
:meth:`Database.execute` returns in process.

Both raise typed exceptions reconstructed from the server's error
codes (:func:`repro.server.protocol.exception_for`): a saturated pool
raises :class:`~repro.errors.AdmissionError`, a deadline expiry
:class:`~repro.errors.QueryTimeout`, a bad statement
:class:`~repro.errors.BindError`, and so on — the same taxonomy an
in-process caller sees from :class:`~repro.service.QueryService`.
"""

from __future__ import annotations

import asyncio
import socket
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ProtocolError, ServerError
from repro.server import protocol


@dataclass
class RemoteStatement:
    """A prepared handle living on the *server's* side of a connection."""

    stmt: int
    num_params: int
    columns: list[str]


def _check(response: dict[str, Any]) -> dict[str, Any]:
    """Raise the typed exception for an error response; pass ok ones."""
    if not isinstance(response, dict):
        raise ProtocolError("response is not a JSON object")
    if response.get("ok"):
        return response
    error = response.get("error") or {}
    raise protocol.exception_for(
        error.get("code", "internal"),
        error.get("message", "unknown server error"),
    )


class AsyncQueryClient:
    """One connection, asyncio flavor.  Use :meth:`connect` to build."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._next_id = 1
        #: One request/response exchange at a time per connection; the
        #: harness gets its concurrency from many connections, which is
        #: also what exercises the server's multiplexing.
        self._lock = asyncio.Lock()

    @classmethod
    async def connect(
        cls, host: str, port: int
    ) -> "AsyncQueryClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _request(self, frame: dict[str, Any]) -> dict[str, Any]:
        async with self._lock:
            frame = dict(frame)
            frame["id"] = self._next_id
            self._next_id += 1
            self._writer.write(protocol.encode(frame))
            await self._writer.drain()
            line = await self._reader.readline()
            if not line:
                raise ServerError("server closed the connection")
            return _check(protocol.decode(line))

    async def query(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        engine: str | None = None,
    ) -> protocol.Rows:
        frame: dict[str, Any] = {"op": "query", "sql": sql}
        if params is not None:
            frame["params"] = list(params)
        if engine is not None:
            frame["engine"] = engine
        response = await self._request(frame)
        return protocol.rows_from_wire(response.get("rows", []))

    async def prepare(
        self, sql: str, engine: str | None = None
    ) -> RemoteStatement:
        frame: dict[str, Any] = {"op": "prepare", "sql": sql}
        if engine is not None:
            frame["engine"] = engine
        response = await self._request(frame)
        return RemoteStatement(
            stmt=response["stmt"],
            num_params=response.get("num_params", 0),
            columns=response.get("columns", []),
        )

    async def execute(
        self,
        statement: RemoteStatement | int,
        params: Sequence[Any] | None = None,
    ) -> protocol.Rows:
        handle = (
            statement.stmt
            if isinstance(statement, RemoteStatement)
            else statement
        )
        frame: dict[str, Any] = {"op": "execute", "stmt": handle}
        if params is not None:
            frame["params"] = list(params)
        response = await self._request(frame)
        return protocol.rows_from_wire(response.get("rows", []))

    async def stats(self) -> dict[str, Any]:
        return await self._request({"op": "stats"})

    async def ping(self) -> bool:
        response = await self._request({"op": "ping"})
        return bool(response.get("pong"))

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass

    async def __aenter__(self) -> "AsyncQueryClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class QueryClient:
    """One connection, blocking flavor (plain socket + file framing)."""

    def __init__(
        self, host: str, port: int, timeout: float | None = None
    ):
        self._sock = socket.create_connection(
            (host, port), timeout=timeout
        )
        self._file = self._sock.makefile("rb")
        self._next_id = 1

    def _request(self, frame: dict[str, Any]) -> dict[str, Any]:
        frame = dict(frame)
        frame["id"] = self._next_id
        self._next_id += 1
        self._sock.sendall(protocol.encode(frame))
        line = self._file.readline()
        if not line:
            raise ServerError("server closed the connection")
        return _check(protocol.decode(line))

    def query(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        engine: str | None = None,
    ) -> protocol.Rows:
        frame: dict[str, Any] = {"op": "query", "sql": sql}
        if params is not None:
            frame["params"] = list(params)
        if engine is not None:
            frame["engine"] = engine
        response = self._request(frame)
        return protocol.rows_from_wire(response.get("rows", []))

    def prepare(
        self, sql: str, engine: str | None = None
    ) -> RemoteStatement:
        frame: dict[str, Any] = {"op": "prepare", "sql": sql}
        if engine is not None:
            frame["engine"] = engine
        response = self._request(frame)
        return RemoteStatement(
            stmt=response["stmt"],
            num_params=response.get("num_params", 0),
            columns=response.get("columns", []),
        )

    def execute(
        self,
        statement: RemoteStatement | int,
        params: Sequence[Any] | None = None,
    ) -> protocol.Rows:
        handle = (
            statement.stmt
            if isinstance(statement, RemoteStatement)
            else statement
        )
        frame: dict[str, Any] = {"op": "execute", "stmt": handle}
        if params is not None:
            frame["params"] = list(params)
        response = self._request(frame)
        return protocol.rows_from_wire(response.get("rows", []))

    def stats(self) -> dict[str, Any]:
        return self._request({"op": "stats"})

    def ping(self) -> bool:
        return bool(self._request({"op": "ping"}).get("pong"))

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
