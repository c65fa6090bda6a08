"""The asyncio TCP front-end over :class:`~repro.service.QueryService`.

The paper's prepared-statement economics (compile once, execute with
fresh parameters) only pay off under sustained concurrent traffic, so
this module gives the repo its first externally reachable surface: an
asyncio server multiplexing thousands of client connections over the
service's bounded session pool.

Division of labor:

* the **event loop** owns connections, framing and response routing —
  it never executes a query itself;
* the **session pool** (``QueryService.submit``) runs the queries, with
  its existing admission control: a saturated pool surfaces to the
  client as a typed ``over_capacity`` response, not a dropped
  connection, so load generators can distinguish backpressure from
  failure and retry with backoff;
* the server's ``query_timeout`` bounds whole-query wall time from the
  outside (``timeout`` response; a still-queued query is cancelled
  outright and releases its admission slot).

Shutdown is a *drain*: the listener closes first, in-flight queries run
to completion and deliver their responses (the service's ``close()``
honors admitted work for the same reason), and only then do
connections close.  Requests arriving mid-drain get a typed
``shutting_down`` response.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.errors import (
    ProtocolError,
    QueryTimeout,
    ReproError,
    ServerError,
)
from repro.server import protocol
from repro.service.statement import PreparedStatement

#: Maximum frame length (bytes) — bounds a hostile or broken client's
#: single line; generous for any SQL the grammar accepts.
MAX_FRAME_BYTES = 1 << 20


@dataclass
class ServerStats:
    """Point-in-time server counters (connections + request outcomes)."""

    connections_total: int
    connections_active: int
    requests: int
    queries_ok: int
    errors: int
    #: Typed backpressure responses (admission control, not failures).
    over_capacity: int
    #: Per-query deadline expiries (the server's ``query_timeout``).
    timeouts: int
    draining: bool


class _Connection:
    """Per-connection state: identity, prepared handles, accounting."""

    __slots__ = (
        "id", "peer", "writer", "statements", "next_handle",
        "queries", "errors",
    )

    def __init__(self, conn_id: int, peer: str, writer=None):
        self.id = conn_id
        self.peer = peer
        self.writer = writer
        #: handle id → PreparedStatement; the per-connection reuse that
        #: makes repeated shapes skip all four preparation stages.
        self.statements: dict[int, PreparedStatement] = {}
        self.next_handle = 1
        self.queries = 0
        self.errors = 0


class QueryServer:
    """One database served over newline-delimited JSON on TCP.

    ``query_timeout`` bounds a single query's wall time (seconds;
    ``None`` waits forever).
    """

    def __init__(
        self,
        database,
        host: str = "127.0.0.1",
        port: int = 0,
        default_engine: str | None = None,
        query_timeout: float | None = None,
        drain_timeout: float = 30.0,
    ):
        self.database = database
        self.service = database.service
        self.host = host
        self.port = port
        self.default_engine = default_engine
        self.query_timeout = query_timeout
        self.drain_timeout = drain_timeout

        self.obs = getattr(database, "obs", None)
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: dict[int, _Connection] = {}
        self._next_conn = 1
        self._draining = False
        #: Requests currently being served; drain waits for zero.
        self._active = 0
        self._all_idle: asyncio.Event | None = None
        #: Blocking preparation (compile on miss) runs here, never on
        #: the event loop; two workers keep one slow cold compile from
        #: stalling every other connection's prepare.
        self._aux = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-server-aux"
        )

        self._conn_total = 0
        self._requests = 0
        self._queries_ok = 0
        self._errors = 0
        self._over_capacity = 0
        self._timeouts = 0

        if self.obs is not None:
            self._latency = self.obs.registry.histogram(
                "repro_server_query_seconds"
            )
            self.obs.registry.register_collector(self._collect_metrics)
        else:
            self._latency = None

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        if self._server is not None:
            raise ServerError("server already started")
        self._loop = asyncio.get_running_loop()
        self._all_idle = asyncio.Event()
        self._all_idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_FRAME_BYTES,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful drain: stop listening, finish admitted queries,
        then close connections."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Every request already dispatched runs to completion and gets
        # its response; only then do the connections go away.
        if self._all_idle is not None and self._active:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._all_idle.wait(), timeout=self.drain_timeout
                )
        for conn_id in list(self._connections):
            conn = self._connections.get(conn_id)
            if conn is not None:
                conn.statements.clear()
                if conn.writer is not None:
                    # Wake handlers parked in readline(): closing the
                    # transport EOFs the reader and the loop exits.
                    with contextlib.suppress(Exception):
                        conn.writer.close()
        self._aux.shutdown(wait=False)
        if self.obs is not None:
            self.obs.registry.unregister_collector(self._collect_metrics)

    # -- connection handling ------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        conn = _Connection(self._next_conn, peer, writer)
        self._next_conn += 1
        self._conn_total += 1
        self._connections[conn.id] = conn
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    writer.write(protocol.encode(protocol.error_response(
                        None, "bad_request",
                        f"frame exceeds {MAX_FRAME_BYTES} bytes",
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._serve_frame(conn, line)
                writer.write(protocol.encode(response))
                await writer.drain()
                if self._draining and self._active == 0:
                    # Drain finished while this response flushed; let
                    # the connection wind down.
                    break
        except (
            ConnectionResetError, BrokenPipeError, TimeoutError
        ):  # pragma: no cover - client went away mid-write
            pass
        finally:
            self._connections.pop(conn.id, None)
            conn.statements.clear()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_frame(
        self, conn: _Connection, line: bytes
    ) -> dict[str, Any]:
        self._requests += 1
        request_id: Any = None
        self._active += 1
        assert self._all_idle is not None
        self._all_idle.clear()
        try:
            frame = protocol.decode(line)
            request_id = frame.get("id")
            op = frame.get("op")
            if op == "ping":
                return protocol.ok_response(request_id, pong=True)
            if op == "stats":
                return self._stats_response(conn, request_id)
            if self._draining:
                conn.errors += 1
                self._errors += 1
                return protocol.error_response(
                    request_id, "shutting_down",
                    "server is draining; no new queries accepted",
                )
            if op == "query":
                return await self._op_query(conn, request_id, frame)
            if op == "prepare":
                return await self._op_prepare(conn, request_id, frame)
            if op == "execute":
                return await self._op_execute(conn, request_id, frame)
            if op == "close_stmt":
                conn.statements.pop(frame.get("stmt"), None)
                return protocol.ok_response(request_id)
            raise ProtocolError(
                f"unknown op {op!r}; expected one of {protocol.OPS}"
            )
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # typed response, never a dropped line
            conn.errors += 1
            self._errors += 1
            code = protocol.error_code(exc)
            if code == "over_capacity":
                self._over_capacity += 1
            elif code == "timeout":
                self._timeouts += 1
            message = (
                str(exc)
                if isinstance(exc, ReproError)
                else f"{type(exc).__name__}: {exc}"
            )
            return protocol.error_response(request_id, code, message)
        finally:
            self._active -= 1
            if self._active == 0:
                self._all_idle.set()

    # -- operations ---------------------------------------------------------------
    def _params_of(self, frame: dict[str, Any]) -> tuple | None:
        params = frame.get("params")
        if params is None:
            return None
        if not isinstance(params, list):
            raise ProtocolError("params must be a JSON array or null")
        return tuple(params)

    def _engine_of(self, frame: dict[str, Any]) -> str | None:
        engine = frame.get("engine")
        if engine is not None and not isinstance(engine, str):
            raise ProtocolError("engine must be a string")
        return engine or self.default_engine

    def _sql_of(self, frame: dict[str, Any]) -> str:
        sql = frame.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("sql must be a non-empty string")
        return sql

    async def _op_query(
        self, conn: _Connection, request_id: Any, frame: dict[str, Any]
    ) -> dict[str, Any]:
        sql = self._sql_of(frame)
        params = self._params_of(frame)
        engine = self._engine_of(frame)
        # submit() applies admission control synchronously: a saturated
        # pool raises here and becomes a typed over_capacity response.
        future = self.service.submit(sql, params=params, engine=engine)
        rows = await self._await_query(future)
        conn.queries += 1
        self._queries_ok += 1
        return protocol.ok_response(
            request_id, rows=protocol.rows_to_wire(rows)
        )

    async def _op_prepare(
        self, conn: _Connection, request_id: Any, frame: dict[str, Any]
    ) -> dict[str, Any]:
        sql = self._sql_of(frame)
        engine = self._engine_of(frame)
        assert self._loop is not None

        def build() -> tuple[PreparedStatement, list[str]]:
            statement = self.service.prepare(sql, engine=engine)
            return statement, statement.output_names

        # Preparation may compile a cold plan — blocking work that must
        # not stall the event loop (and with it every connection).
        statement, columns = await self._loop.run_in_executor(
            self._aux, build
        )
        handle = conn.next_handle
        conn.next_handle += 1
        conn.statements[handle] = statement
        return protocol.ok_response(
            request_id,
            stmt=handle,
            num_params=statement.num_params,
            columns=columns,
        )

    async def _op_execute(
        self, conn: _Connection, request_id: Any, frame: dict[str, Any]
    ) -> dict[str, Any]:
        handle = frame.get("stmt")
        statement = conn.statements.get(handle)
        if statement is None:
            raise ProtocolError(
                f"unknown statement handle {handle!r} on this connection"
            )
        params = self._params_of(frame)
        future = self.service.submit_statement(statement, params)
        rows = await self._await_query(future)
        conn.queries += 1
        self._queries_ok += 1
        return protocol.ok_response(
            request_id, rows=protocol.rows_to_wire(rows)
        )

    async def _await_query(self, future) -> list[tuple]:
        """Await a session future under the per-query deadline.

        On expiry the future is cancelled: a query still *queued* is
        withdrawn outright (releasing its admission slot); one already
        running completes in the background while the client gets the
        typed ``timeout`` now.
        """
        started = time.perf_counter()
        wrapped = asyncio.wrap_future(future)
        try:
            rows = await asyncio.wait_for(wrapped, self.query_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            future.cancel()
            raise QueryTimeout(
                f"query exceeded the server deadline of "
                f"{self.query_timeout}s"
            ) from None
        finally:
            if self._latency is not None:
                self._latency.observe(time.perf_counter() - started)
        return rows

    # -- introspection -------------------------------------------------------------
    def stats(self) -> ServerStats:
        return ServerStats(
            connections_total=self._conn_total,
            connections_active=len(self._connections),
            requests=self._requests,
            queries_ok=self._queries_ok,
            errors=self._errors,
            over_capacity=self._over_capacity,
            timeouts=self._timeouts,
            draining=self._draining,
        )

    def _stats_response(
        self, conn: _Connection, request_id: Any
    ) -> dict[str, Any]:
        server = self.stats()
        service = self.service.stats()
        return protocol.ok_response(
            request_id,
            server=server.__dict__.copy(),
            service={
                "queries": service.queries,
                "submitted": service.submitted,
                "completed": service.completed,
                "failed": service.failed,
                "rejected": service.rejected,
                "pending": service.pending,
                "cache_hits": service.cache.hits,
                "cache_misses": service.cache.misses,
            },
            connection={
                "id": conn.id,
                "queries": conn.queries,
                "errors": conn.errors,
                "statements": len(conn.statements),
            },
        )

    def _collect_metrics(self, registry) -> None:
        """Render-time sampler: server gauges next to the service's."""
        stats = self.stats()
        registry.sample(
            "repro_server_connections_total", stats.connections_total
        )
        registry.sample(
            "repro_server_connections_active", stats.connections_active
        )
        registry.sample("repro_server_requests_total", stats.requests)
        registry.sample("repro_server_queries_ok_total", stats.queries_ok)
        registry.sample("repro_server_errors_total", stats.errors)
        registry.sample(
            "repro_server_over_capacity_total", stats.over_capacity
        )
        registry.sample("repro_server_timeouts_total", stats.timeouts)
        # Per-connection attribution, bounded by the active set: which
        # session is hammering the service shows up in ``.metrics``.
        for conn in list(self._connections.values()):
            registry.sample(
                "repro_server_connection_queries",
                conn.queries,
                conn=str(conn.id),
                peer=conn.peer,
            )


class ServerHandle:
    """A :class:`QueryServer` running on a background event-loop thread.

    The synchronous face of the server, for shells, tests and scripts:
    ``address`` to connect, :meth:`stop` to drain and join.
    """

    def __init__(
        self,
        server: QueryServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ):
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stats(self) -> ServerStats:
        return self.server.stats()

    def stop(self, timeout: float | None = None) -> None:
        """Drain the server and stop its event-loop thread."""
        if self._stopped:
            return
        self._stopped = True
        drain = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self._loop
        )
        drain.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(
    database,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> ServerHandle:
    """Start a query server on a daemon event-loop thread.

    Returns once the socket is bound; the handle's ``address`` holds
    the OS-assigned port when ``port=0``.
    """
    server = QueryServer(database, host=host, port=port, **kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # surface bind errors to the caller
            failure.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(
        target=run, name="repro-server", daemon=True
    )
    thread.start()
    started.wait()
    if failure:
        raise failure[0]
    return ServerHandle(server, loop, thread)
