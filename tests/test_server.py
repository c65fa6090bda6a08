"""The TCP query server: protocol, backpressure, timeouts, drain.

Tier-1 smoke coverage for the serving layer: rows over the wire must
be byte-identical to direct :meth:`Database.execute`, error responses
must be *typed* (admission backpressure, per-query deadlines, SQL
errors), and a graceful shutdown under load must
complete every admitted query with zero spurious "service is closed"
failures.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.api import Database
from repro.errors import (
    AdmissionError,
    BindError,
    ParseError,
    ProtocolError,
    QueryTimeout,
    ServerError,
    ServiceError,
)
from repro.server import QueryClient, serve_in_thread
from repro.server.protocol import (
    Rows,
    decode,
    encode,
    error_code,
    rows_from_wire,
)


@pytest.fixture()
def served_db(simple_db):
    handle = simple_db.serve()
    yield simple_db, handle
    handle.stop()


def connect(handle) -> QueryClient:
    return QueryClient(*handle.address, timeout=30)


# -- round trips --------------------------------------------------------------------



def test_rows_read_like_a_list_of_tuples():
    wire = [[1, 2.5, "a"], [2, 3.5, "b"], [3, 4.5, "c"]]
    rows = rows_from_wire(wire)
    as_list = [tuple(row) for row in wire]
    assert isinstance(rows, Rows) and len(rows) == 3 and rows
    assert list(rows) == as_list and rows == as_list and as_list == rows
    assert rows == rows_from_wire(wire) and rows != as_list[:2]
    assert rows != [(1, 2.5, "a"), (2, 3.5, "b"), (3, 4.5, "x")]
    assert rows[0] == (1, 2.5, "a") and rows[-1] == (3, 4.5, "c")
    assert rows[1:] == as_list[1:] and rows[::-1] == as_list[::-1]
    assert sorted(rows, reverse=True)[0] == (3, 4.5, "c")
    assert repr(rows) == repr(as_list)
    with pytest.raises(IndexError):
        rows[3]
    with pytest.raises(IndexError):
        rows[-4]
    empty = rows_from_wire([])
    assert not empty and len(empty) == 0 and list(empty) == []
    assert empty == [] and empty != [()]

def test_rows_byte_identical_to_direct_execute(served_db):
    db, handle = served_db
    with connect(handle) as client:
        for sql, params in [
            ("SELECT a, b FROM t WHERE a = ?", [7]),
            ("SELECT a, b, c, k FROM t WHERE a < 20", None),
            (
                "SELECT c, sum(b) AS s FROM t GROUP BY c ORDER BY s DESC",
                None,
            ),
            ("SELECT t.a, u.d FROM t, u WHERE t.k = u.k AND t.a < 9", None),
        ]:
            over_wire = client.query(sql, params=params)
            direct = db.execute(
                sql, params=tuple(params) if params else None
            )
            assert over_wire == direct  # tuples, values, order: identical


def test_interpreting_engines_served_too(served_db):
    db, handle = served_db
    with connect(handle) as client:
        for engine in ("volcano", "vectorized"):
            rows = client.query(
                "SELECT a FROM t WHERE a = ?", params=[3], engine=engine
            )
            assert rows == db.execute(
                "SELECT a FROM t WHERE a = 3", engine=engine
            )


def test_ping_and_stats(served_db):
    _, handle = served_db
    with connect(handle) as client:
        assert client.ping()
        client.query("SELECT a FROM t WHERE a = 1")
        payload = client.stats()
        assert payload["server"]["queries_ok"] == 1
        assert payload["server"]["connections_active"] == 1
        assert payload["connection"]["queries"] == 1
        assert payload["service"]["completed"] >= 1


# -- per-connection prepared-statement reuse ----------------------------------------


def test_prepared_handle_reuses_one_compiled_plan(served_db):
    db, handle = served_db
    compiler = db.engine("hique").compiler
    with connect(handle) as client:
        statement = client.prepare("SELECT a, b FROM t WHERE a = ?")
        assert statement.num_params == 1
        assert statement.columns == ["a", "b"]
        before = compiler._counter
        for value in (5, 60, 155):
            rows = client.execute(statement, [value])
            assert rows == db.execute(
                "SELECT a, b FROM t WHERE a = ?", params=(value,)
            )
        assert compiler._counter == before  # zero re-preparation
    # A second connection preparing the same shape shares the cached
    # plan: the service cache is process-wide, handles are per-conn.
    with connect(handle) as other:
        again = other.prepare("SELECT a, b FROM t WHERE a = ?")
        assert other.execute(again, [5]) == db.execute(
            "SELECT a, b FROM t WHERE a = ?", params=(5,)
        )
        assert compiler._counter == before


def test_statement_handles_are_per_connection(served_db):
    _, handle = served_db
    with connect(handle) as first:
        statement = first.prepare("SELECT a FROM t WHERE a = ?")
        with connect(handle) as second:
            with pytest.raises(ProtocolError):
                second.execute(statement.stmt, [1])


# -- typed errors -------------------------------------------------------------------


def test_pool_saturation_is_a_typed_over_capacity_response(served_db):
    db, handle = served_db
    db.service.max_pending = 0
    try:
        with connect(handle) as client:
            with pytest.raises(AdmissionError):
                client.query("SELECT a FROM t WHERE a = 1")
            # The connection survived the rejection: typed backpressure,
            # not a dropped socket.
            assert client.ping()
            assert client.stats()["server"]["over_capacity"] == 1
    finally:
        db.service.max_pending = db.service.max_workers * 8


def test_sql_errors_arrive_typed(served_db):
    _, handle = served_db
    with connect(handle) as client:
        with pytest.raises(BindError):
            client.query("SELECT nope FROM t")
        with pytest.raises(ParseError):
            client.query("FROM t SELECT a")
        assert client.ping()  # still connected after both


def test_malformed_frames_get_bad_request(served_db):
    _, handle = served_db
    import socket

    with socket.create_connection(handle.address, timeout=10) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b"this is not json\n")
        response = decode(reader.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        sock.sendall(encode({"op": "frobnicate", "id": 9}))
        response = decode(reader.readline())
        assert response["error"]["code"] == "bad_request"
        assert response["id"] == 9


def test_query_deadline_is_a_typed_timeout(simple_db):
    handle = simple_db.serve(query_timeout=0.1)
    original = simple_db.service.execute

    def slow(sql, params=None, engine=None):
        if "999" in sql:
            time.sleep(0.6)
        return original(sql, params, engine)

    simple_db.service.execute = slow
    try:
        with connect(handle) as client:
            with pytest.raises(QueryTimeout):
                client.query("SELECT a FROM t WHERE a = 999")
            # The deadline bounds one query, not the connection.
            assert client.query("SELECT a FROM t WHERE a = 1") == [(1,)]
            assert client.stats()["server"]["timeouts"] == 1
    finally:
        simple_db.service.execute = original
        handle.stop()


def test_error_code_taxonomy():
    assert error_code(AdmissionError("x")) == "over_capacity"
    assert error_code(QueryTimeout("x")) == "timeout"
    assert error_code(BindError("x")) == "bind"
    assert error_code(ParseError("x")) == "parse"
    assert error_code(ServiceError("x")) == "service"
    assert error_code(ProtocolError("x")) == "bad_request"
    assert error_code(ValueError("x")) == "internal"


# -- graceful drain -----------------------------------------------------------------


def test_graceful_shutdown_completes_admitted_queries(simple_catalog):
    """Shutdown under load: every admitted query completes and answers;
    zero spurious "query service is closed" failures."""
    db = Database(catalog=simple_catalog, max_workers=2)
    db.service.max_pending = 1024
    original = db.service.execute

    def measured(sql, params=None, engine=None):
        time.sleep(0.01)  # keep the pool busy so the drain overlaps work
        return original(sql, params, engine)

    db.service.execute = measured
    handle = db.serve()
    outcomes: list[tuple[str, object]] = []
    outcomes_lock = threading.Lock()

    def client_loop(worker: int) -> None:
        client = connect(handle)
        try:
            for i in range(8):
                try:
                    rows = client.query(
                        "SELECT a, b FROM t WHERE k = ?",
                        params=[(worker + i) % 5],
                    )
                    with outcomes_lock:
                        outcomes.append(("ok", rows))
                except ServerError as exc:
                    with outcomes_lock:
                        outcomes.append(("shutdown", exc))
                    return
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_loop, args=(w,)) for w in range(6)
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.08)  # let load build, then drain mid-flight
    handle.stop()
    for thread in threads:
        thread.join(timeout=30)

    completed = [o for o in outcomes if o[0] == "ok"]
    assert completed, "no query completed before the drain"
    for kind, value in outcomes:
        if kind == "ok":
            assert isinstance(value, Rows) and value  # real rows came back
        else:
            # Typed shutdown or a closed socket — never "service is
            # closed" leaking from a drained-but-admitted query.
            assert "query service is closed" not in str(value)
    stats = db.service.stats()
    assert stats.failed == 0
    assert stats.pending == 0
    db.close()


def _resetting_listener(connections: int):
    """A local listener that reads one request from each of
    ``connections`` connections, then resets it (RST, not FIN)."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        with listener:
            for _ in range(connections):
                conn, _ = listener.accept()
                conn.recv(65536)
                conn.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname(), thread


def test_a_reset_mid_request_is_a_typed_server_error():
    import asyncio

    from repro.server import AsyncQueryClient

    address, thread = _resetting_listener(2)
    client = QueryClient(*address, timeout=30)
    try:
        with pytest.raises(ServerError, match="server closed the connection"):
            client.query("SELECT a FROM t")
    finally:
        client.close()

    async def one_async_request() -> None:
        client = await AsyncQueryClient.connect(*address)
        try:
            await client.query("SELECT a FROM t")
        finally:
            await client.close()

    with pytest.raises(ServerError, match="server closed the connection"):
        asyncio.run(one_async_request())
    thread.join(timeout=30)


def test_stop_is_idempotent(simple_db):
    handle = simple_db.serve()
    handle.stop()
    handle.stop()  # second stop is a no-op, not an error


def test_serve_in_thread_reports_bind_errors(simple_db):
    handle = simple_db.serve()
    try:
        with pytest.raises(OSError):
            serve_in_thread(simple_db, port=handle.port)
    finally:
        handle.stop()


# -- concurrency smoke ---------------------------------------------------------------


def test_many_concurrent_async_clients(simple_db):
    """A modest async fleet (tier-1 sized; the bench drives 500+)."""
    import asyncio

    from repro.server import AsyncQueryClient

    handle = simple_db.serve()
    simple_db.service.max_pending = 1024
    expected = {
        k: simple_db.execute(f"SELECT a, b FROM t WHERE k = {k}")
        for k in range(5)
    }

    async def one_client(i: int) -> None:
        client = await AsyncQueryClient.connect(*handle.address)
        try:
            statement = await client.prepare(
                "SELECT a, b FROM t WHERE k = ?"
            )
            for j in range(3):
                k = (i + j) % 5
                rows = await client.execute(statement, [k])
                assert rows == expected[k]
        finally:
            await client.close()

    async def fleet() -> None:
        await asyncio.gather(*(one_client(i) for i in range(40)))

    try:
        asyncio.run(fleet())
        stats = handle.stats()
        assert stats.connections_total >= 40
        assert stats.queries_ok == 120
        assert stats.errors == 0
    finally:
        handle.stop()
