"""The four workloads: set-up, closed-loop drivers and verification.

Each drives the program only through its public surface — ``Database``
for the three single-caller workloads, ``Database.serve()`` plus
``AsyncQueryClient`` for ``oltp_wire`` — with ``W = min(cpu_count, 4)``
for both worker pools and every other setting at the program's default.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Iterator

from repro import Column, Database, DOUBLE, INT
from repro.bench.synth import make_group_table, make_join_pair
from repro.bench.tpch import generate_tpch
from repro.server import AsyncQueryClient
from repro.storage import char

from benchmarks.e2e import oracle, streams
from benchmarks.e2e.calibrate import SAMPLE_EVERY_S, Calibration
from benchmarks.e2e.layers import LayerProbe
from benchmarks.e2e.streams import Op, WRITE

WIDTH = min(os.cpu_count() or 1, 4)


@dataclass
class Done:
    """One finished operation, as its caller saw it."""

    op: Op
    #: ``time.perf_counter()`` when it was issued, and how long it took.
    start: float
    seconds: float
    #: Result digest (single caller) or rows (wire); None when it raised.
    outcome: Any
    error: str | None = None


class Workload:
    """Common shape: set up, drive phases, verify, tear down."""

    name = ""

    def __init__(self, seed: int, scale: str, calibration: Calibration):
        self.seed = seed
        self.scale = scale
        #: Sampled between operations, never during one of this caller's.
        self.calibration = calibration
        self.db: Database | None = None
        self.server = None
        self._requests = itertools.count()

    def setup(self) -> None:
        self.db = Database(workers=WIDTH, max_workers=WIDTH)
        self.load()

    def load(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    def run_phase(
        self, count: int, seconds: float | None, probe: LayerProbe | None
    ) -> tuple[list[Done], float]:
        """Run up to ``count`` operations, or until ``seconds`` of
        measured time have passed.  Returns them with the phase's wall
        seconds, the harness's own pauses between operations (and the
        calibration kernel) excluded."""
        raise NotImplementedError

    def verify(
        self, warm: list[Done], timed: list[Done], budget: float | None
    ) -> tuple[int, list[str]]:
        """Check the timed phase's outcomes against the oracle for at
        most ``budget`` seconds (``warm`` is what ran before it).
        Returns (operations checked, mismatch descriptions)."""
        raise NotImplementedError

    def baselines(self, done: list[Done]) -> dict[str, float]:
        """``engines.*`` metrics; only ``adhoc_analytic`` has any."""
        return {
            "engines.volcano.exec_s": 0.0,
            "engines.vectorized.exec_s": 0.0,
            "engines.hique_speedup_vs_volcano": 0.0,
        }


class SingleCaller(Workload):
    """One in-process caller issuing ``Database.execute`` in a loop."""

    #: 1-in-N reads are checked against the oracle, on top of one
    #: operation of every (template, binding).
    sample_every = 8

    def __init__(self, seed: int, scale: str, calibration: Calibration):
        super().__init__(seed, scale, calibration)
        (self.stream,) = streams.lanes(self.name, seed, scale)

    def run_phase(self, count, seconds, probe):
        execute = self.db.execute
        sample = self.calibration.sample
        limit = math.inf if seconds is None else seconds
        done: list[Done] = []
        busy = unsampled = 0.0
        sample()
        while len(done) < count and busy < limit:
            op = next(self.stream)
            span = (
                probe.tracer.span("api.execute", "api",
                                  request=next(self._requests))
                if probe is not None else nullcontext()
            )
            outcome = error = None
            with span:
                started = time.perf_counter()
                try:
                    rows = execute(op.sql)
                except Exception as exc:  # a failed operation, counted
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - started
            if error is None:
                outcome = oracle.digest(rows)
            busy += elapsed
            done.append(Done(op, started, elapsed, outcome, error))
            unsampled += elapsed
            if unsampled >= SAMPLE_EVERY_S:
                sample()
                unsampled = 0.0
        sample()
        return done, busy

    def expected(self, op: Op) -> bytes:
        raise NotImplementedError

    def verify(self, warm, done, budget):
        started = time.perf_counter()
        one_row = oracle.digest([(1,)])
        mismatches: list[str] = []
        checked = 0
        for index in _verification_order(
            done, self.seed, self.sample_every
        ):
            item = done[index]
            if item.error is not None:
                continue
            if item.op.kind == WRITE:
                want = one_row
            elif budget is not None and (
                time.perf_counter() - started > budget
            ):
                continue
            else:
                want = self.expected(item.op)
            checked += 1
            if item.outcome != want:
                mismatches.append(
                    f"{self.name} op {index} differs from the oracle: "
                    + " ".join(item.op.sql.split())
                )
        return checked, mismatches


def _verification_order(
    done: list[Done], seed: int, every: int
) -> Iterator[int]:
    """Which operations to check, most valuable first: every write
    (its expected outcome is free) and one read of every (template,
    binding) in seeded order, then a seeded 1-in-N sample of the rest —
    so a time budget cuts the sample, not the coverage."""
    rng = streams.rng_for(seed, "verify")
    first: dict[Any, int] = {}
    for index, item in enumerate(done):
        op = item.op
        first.setdefault(
            index if op.kind == WRITE else (op.template, op.binding), index
        )
    must = sorted(first.values())
    rng.shuffle(must)
    chosen = set(must)
    rest = [
        i for i in range(len(done))
        if i not in chosen and rng.randrange(every) == 0
    ]
    rng.shuffle(rest)
    return itertools.chain(must, rest)


class _Tpch(SingleCaller):
    scale_key = ""

    def load(self) -> None:
        generate_tpch(
            self.db.catalog, streams.SCALES[self.scale][self.scale_key]
        )

    def expected(self, op: Op) -> bytes:
        return oracle.volcano_expected(self.db, op)


class AdhocAnalytic(_Tpch):
    name = "adhoc_analytic"
    scale_key = "adhoc_sf"

    def baselines(self, done):
        """One execution of each template on the interpreting engines,
        against the same statement's measured HIQUE latency."""
        picked: dict[str, Done] = {}
        for item in done:
            if item.error is None:
                picked.setdefault(item.op.template, item)
        seconds = {"volcano": 0.0, "vectorized": 0.0}
        for item in picked.values():
            # The column engine converts each table once; that is set-up.
            self.db.execute(item.op.sql, engine="vectorized")
            for kind in seconds:
                started = time.perf_counter()
                self.db.execute(item.op.sql, engine=kind)
                seconds[kind] += time.perf_counter() - started
        hique = sum(item.seconds for item in picked.values())
        return {
            "engines.volcano.exec_s": seconds["volcano"],
            "engines.vectorized.exec_s": seconds["vectorized"],
            "engines.hique_speedup_vs_volcano": (
                seconds["volcano"] / hique if hique else 0.0
            ),
        }


class DashboardRepeat(_Tpch):
    name = "dashboard_repeat"
    scale_key = "dashboard_sf"
    #: It issues some fifteen operations for each of adhoc_analytic's,
    #: and a volcano check costs as much as twenty of them.
    sample_every = 32


class ShapeChurn(SingleCaller):
    name = "shape_churn"

    def load(self) -> None:
        catalog = self.db.catalog
        tables = streams.CHURN_TABLES
        make_join_pair(
            catalog, tables["facts"][0], tables["dims"][0], 1,
            outer_name="facts", inner_name="dims", seed=self.seed,
        )
        make_group_table(
            catalog, *tables["events"], name="events", seed=self.seed + 1
        )

    def expected(self, op: Op) -> bytes:
        return oracle.reference_expected(self.db, op)


class OltpWire(Workload):
    """``W`` closed-loop connections over the TCP server."""

    name = "oltp_wire"

    def __init__(self, seed: int, scale: str, calibration: Calibration):
        super().__init__(seed, scale, calibration)
        self.streams = streams.lanes(self.name, seed, scale, WIDTH)
        self.accounts, self.branches = streams.oltp_tables(seed, scale)
        self.loop: asyncio.AbstractEventLoop | None = None
        self.clients: list[AsyncQueryClient] = []
        self.handles: list[dict[str, Any]] = []

    def load(self) -> None:
        db = self.db
        db.create_table("accounts", [
            Column("id", INT), Column("branch", INT),
            Column("balance", DOUBLE), Column("status", char(8)),
        ])
        db.create_table("branches", [
            Column("bid", INT), Column("region", INT),
            Column("name", char(16)),
        ])
        db.load_rows("accounts", self.accounts)
        db.load_rows("branches", self.branches)
        db.table("accounts").create_index("id")
        db.analyze()
        self.server = db.serve()
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._connect())

    async def _connect(self) -> None:
        for _ in range(WIDTH):
            client = await AsyncQueryClient.connect(*self.server.address)
            self.clients.append(client)
            self.handles.append({
                template: await client.prepare(sql)
                for template, sql in streams.OLTP_SQL.items()
            })

    def teardown(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self._disconnect())
            self.loop.close()
            self.loop = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        super().teardown()

    async def _disconnect(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients.clear()
        self.handles.clear()

    def run_phase(self, count, seconds, probe):
        return self.loop.run_until_complete(
            self._drive(count, seconds, probe)
        )

    async def _drive(self, count, seconds, probe):
        finished = asyncio.Event()
        sampler = asyncio.ensure_future(self._calibrate(finished))
        started = time.perf_counter()
        deadline = math.inf if seconds is None else started + seconds
        tasks = [
            asyncio.ensure_future(self._lane(lane, count, deadline, probe))
            for lane in range(WIDTH)
        ]
        try:
            per_lane = await asyncio.gather(*tasks)
            wall = time.perf_counter() - started
        finally:
            finished.set()
            await sampler
        # Lane after lane: each lane's order is what its mirror replays.
        return [item for lane in per_lane for item in lane], wall

    async def _calibrate(self, finished: asyncio.Event) -> None:
        """Sample on the load generator's thread while the connections
        wait for replies: a kernel is shorter than the interpreter's
        switch interval, so once it runs no server thread interrupts
        it, and it keeps the client's loop from a reply for one
        millisecond in forty."""
        while not finished.is_set():
            self.calibration.sample()
            await asyncio.sleep(SAMPLE_EVERY_S)
        self.calibration.sample()

    async def _lane(self, lane, count, deadline, probe) -> list[Done]:
        client, handles = self.clients[lane], self.handles[lane]
        stream = self.streams[lane]
        done: list[Done] = []
        while len(done) < count and time.perf_counter() < deadline:
            op = next(stream)
            span = None
            if probe is not None:
                span = probe.tracer.begin(
                    "server.roundtrip", "server",
                    request=next(self._requests),
                )
                probe.in_flight[tuple(op.params)] = (span.id, span.request)
            rows = error = None
            started = time.perf_counter()
            try:
                rows = await client.execute(handles[op.template], op.params)
            except Exception as exc:  # a failed operation, counted
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            if span is not None:
                probe.tracer.finish(span)
            done.append(Done(op, started, elapsed, rows, error))
        return done

    def verify(self, warm, timed, budget):
        """Replay every connection through the mirror — warm-up first,
        its writes count — then compare the table's stored rows with
        the mirror's final state.  Connections touch disjoint rows, so
        replaying them one after another is exact."""
        mirror = oracle.Mirror(self.accounts, self.branches)
        mismatches: list[str] = []
        done = warm + timed
        for index, item in enumerate(done):
            want = mirror.expected(item.op)
            if item.error is not None:
                continue
            if oracle.canonical(item.outcome) != oracle.canonical(want):
                mismatches.append(
                    f"{self.name} op {index} ({item.op.template} "
                    f"{item.op.params}) returned {item.outcome!r}, "
                    f"mirror says {want!r}"
                )
        stored = oracle.canonical(self.db.table("accounts").scan_rows())
        if stored != oracle.canonical(mirror.rows.values()):
            mismatches.append(
                f"{self.name}: accounts holds {len(stored)} rows that differ "
                f"from the mirrors' {len(mirror.rows)}"
            )
        return len(done), mismatches


WORKLOADS = {
    cls.name: cls
    for cls in (AdhocAnalytic, DashboardRepeat, ShapeChurn, OltpWire)
}
