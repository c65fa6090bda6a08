"""Per-layer metrics: spans around each layer's public entry points,
and deltas of each layer's public statistics.

Layers are the program's packages (``sql``, ``plan``, ``core``,
``parallel``, ``storage``, ``service``, ``server``).  ``*_s`` metrics
are summed span durations (a span includes the spans it encloses;
``self_s`` is the exception), counts are differences between two
snapshots of the layer's own counters, and the ``parallel.*_s`` phase
times, tasks and morsels are read off the ``ExecutionStats`` the
program returns (``program_reported`` in ``PREDICTIONS.json``).
``BENCHMARK.json`` names every metric with its unit; this module holds
only how each value is obtained.

``BufferManager.get_page``/``scan_page`` run once per page and are
counted through ``BufferManager.stats``, never wrapped.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

import repro.server.protocol as protocol
import repro.service.service as service_module
from repro.core.compiler import QueryCompiler
from repro.core.engine import HiqueEngine
from repro.core.generator import CodeGenerator
from repro.parallel.executor import ParallelExecutor
from repro.plan.optimizer import Optimizer
from repro.service.service import QueryService
from repro.sql.binder import Binder
from repro.storage.table import Table

from benchmarks.e2e.spans import Span, Tracer, self_seconds

PHASES = ("stage", "join", "aggregate", "final")

#: Span name → the metric its durations sum into.
_SPAN_METRICS = {
    "sql.parse": "sql.parse_s",
    "sql.parameterize": "sql.parameterize_s",
    "sql.bind": "sql.bind_s",
    "plan.optimize": "plan.optimize_s",
    "core.prepare": "core.prepare_s",
    "core.generate": "core.generate_s",
    "core.compile": "core.compile_s",
    "core.execute": "core.execute_s",
    "parallel.run": "parallel.run_s",
    "storage.append": "storage.append_s",
    "storage.update": "storage.update_s",
    "storage.delete": "storage.delete_s",
    "service.execute": "service.execute_s",
    "service.dml": "service.dml_s",
    "service.queue_wait": "service.queue_wait_s",
}
#: What else :meth:`LayerProbe.span_metrics` reads off the spans: counts
#: from their attributes, the program-reported phase times, self times.
_SPAN_DERIVED = (
    "sql.statements", "plan.operators", "core.source_bytes",
    "core.modules_compiled", "parallel.serial_s",
    *(f"parallel.{phase}_s" for phase in PHASES),
    "parallel.tasks", "parallel.morsels", "service.self_s", "server.wire_s",
)


def snapshot(db, server=None) -> dict[str, float]:
    """The layers' public counters, read through their stats calls."""
    service = db.service.stats()
    plans = service.cache
    staged = db.intermediates.stats()
    pool = db.buffer.stats
    return {
        "parallel.intermediates.hits": staged.hits,
        "parallel.intermediates.misses": staged.misses,
        "parallel.intermediates.evictions": staged.evictions,
        "parallel.intermediates.invalidations": staged.invalidations,
        "parallel.intermediates.bytes": staged.bytes,
        "storage.buffer.hits": pool.hits,
        "storage.buffer.misses": pool.misses,
        "storage.buffer.evictions": pool.evictions,
        "service.plan_cache.hits": plans.hits,
        "service.plan_cache.misses": plans.misses,
        "service.plan_cache.evictions": plans.evictions,
        "service.plan_cache.invalidations": plans.invalidations,
        "service.text_hits": service.text_hits,
        "service.rejected": service.rejected,
        "service.failed": service.failed,
        "server.connections": (
            server.stats().connections_active if server is not None else 0
        ),
    }


#: Snapshot entries that are levels, not running totals.
_GAUGES = ("parallel.intermediates.bytes", "server.connections")


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def counter_metrics(
    before: dict[str, float], after: dict[str, float], ops: int
) -> dict[str, float]:
    """What the layers counted between two snapshots."""
    out = {
        name: after[name] if name in _GAUGES else after[name] - before[name]
        for name in after
    }
    for prefix in ("parallel.intermediates", "storage.buffer",
                   "service.plan_cache"):
        out[f"{prefix}.hit_ratio"] = _ratio(
            out[f"{prefix}.hits"], out[f"{prefix}.misses"]
        )
    out["storage.pages_per_op"] = (
        out["storage.buffer.hits"] + out["storage.buffer.misses"]
    ) / max(ops, 1)
    return out


class LayerProbe:
    """Installs the spans for one traced pass and reads them back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: ``oltp_wire``'s client notes (round-trip span id, request id)
        #: here under the operation's parameter tuple, which is unique
        #: among the requests in flight (each connection works on its
        #: own ids); ``submit_statement`` claims it, so the service's
        #: spans join the client's request across the wire.
        self.in_flight: dict[tuple, tuple[int, Any]] = {}
        #: id(statement handle) → (submit time, parent span, request);
        #: a handle belongs to one connection, which has one request in
        #: flight, so the key is unique while it is needed.
        self._submitted: dict[int, tuple[float, int | None, Any]] = {}

    def install(self) -> None:
        wrap = self.tracer.wrap
        # service.py binds these three by name at import time, so its
        # own module attributes are the ones its calls go through.
        wrap(service_module, "parse_statement", "sql.parse", "sql")
        wrap(service_module, "parameterize_statement", "sql.parameterize",
             "sql")
        wrap(service_module, "execute_dml", "service.dml", "service")
        wrap(Binder, "bind", "sql.bind", "sql")
        wrap(Binder, "bind_statement", "sql.bind", "sql")
        wrap(Optimizer, "plan", "plan.optimize", "plan", after=_plan_attrs)
        wrap(HiqueEngine, "prepare", "core.prepare", "core")
        wrap(CodeGenerator, "generate", "core.generate", "core")
        wrap(QueryCompiler, "compile", "core.compile", "core",
             after=_compile_attrs)
        wrap(HiqueEngine, "execute_prepared", "core.execute", "core")
        wrap(ParallelExecutor, "run", "parallel.run", "parallel",
             after=_run_attrs)
        wrap(Table, "load_rows", "storage.load", "storage", after=_rows_attrs)
        wrap(Table, "append_rows", "storage.append", "storage")
        wrap(Table, "update_rows", "storage.update", "storage")
        wrap(Table, "delete_rows", "storage.delete", "storage")
        wrap(protocol, "encode", "server.encode", "server",
             after=_bytes_attrs)
        self._wrap_service()

    def _wrap_service(self) -> None:
        tracer = self.tracer
        submit = QueryService.submit_statement
        execute = QueryService.execute_statement

        def submit_statement(service, statement, params=None):
            parent, request = self.in_flight.pop(
                tuple(params or ()), (None, None)
            )
            self._submitted[id(statement)] = (
                time.perf_counter(), parent, request
            )
            return submit(service, statement, params)

        def execute_statement(
            service, statement, params=None, allow_override=True
        ):
            started = time.perf_counter()
            submitted, parent, request = self._submitted.pop(
                id(statement), (None, None, None)
            )
            if submitted is not None:
                wait = tracer.begin(
                    "service.queue_wait", "service", parent, request
                )
                wait.start = submitted
                tracer.finish(wait, started)
            with tracer.span("service.execute", "service", parent, request):
                return execute(service, statement, params, allow_override)

        tracer.replace(QueryService, "submit_statement", submit_statement)
        tracer.replace(QueryService, "execute_statement", execute_statement)

    def uninstall(self) -> None:
        self.tracer.unwrap_all()

    # -- reading -----------------------------------------------------------
    def span_metrics(
        self, spans: Sequence[Span], ops: int
    ) -> dict[str, float]:
        """Per-layer times and counts from the given spans."""
        out = dict.fromkeys((*_SPAN_METRICS.values(), *_SPAN_DERIVED), 0.0)
        own = self_seconds(spans)
        runs = parallel_runs = wire_bytes = 0
        for span in spans:
            metric = _SPAN_METRICS.get(span.name)
            if metric is not None:
                out[metric] += span.seconds
            attrs = span.attrs or {}
            if span.name == "sql.parse":
                out["sql.statements"] += 1
            elif span.name == "plan.optimize":
                out["plan.operators"] += attrs["operators"]
            elif span.name == "core.compile":
                out["core.modules_compiled"] += 1
                out["core.source_bytes"] += attrs["source_bytes"]
            elif span.name == "parallel.run":
                runs += 1
                if attrs["parallel"]:
                    parallel_runs += 1
                else:
                    out["parallel.serial_s"] += span.seconds
                for phase in PHASES:
                    out[f"parallel.{phase}_s"] += attrs["phases"].get(
                        phase, 0.0
                    )
                out["parallel.tasks"] += attrs["tasks"]
                out["parallel.morsels"] += attrs["morsels"]
            elif span.name == "service.execute":
                out["service.self_s"] += own[span.id]
            elif span.name == "server.roundtrip":
                out["server.wire_s"] += own[span.id]
            elif span.name == "server.encode":
                wire_bytes += attrs["bytes"]
        out["parallel.parallel_share"] = parallel_runs / runs if runs else 0.0
        out["server.bytes_per_op"] = wire_bytes / max(ops, 1)
        return out

    @staticmethod
    def load_metrics(spans: Sequence[Span]) -> dict[str, float]:
        """``Table.load_rows`` during set-up."""
        loads = [s for s in spans if s.name == "storage.load"]
        seconds = sum(s.seconds for s in loads)
        rows = sum(s.attrs["rows"] for s in loads)
        return {
            "storage.load_s": seconds,
            "storage.load_rows_per_s": rows / seconds if seconds else 0.0,
        }


def _plan_attrs(span: Span, args: tuple, plan: Any) -> None:
    span.attrs = {"operators": len(plan.operators)}


def _compile_attrs(span: Span, args: tuple, compiled: Any) -> None:
    span.attrs = {"source_bytes": compiled.source_bytes}


def _rows_attrs(span: Span, args: tuple, rows: int) -> None:
    span.attrs = {"rows": rows}


def _bytes_attrs(span: Span, args: tuple, frame: bytes) -> None:
    span.attrs = {"bytes": len(frame)}


def _run_attrs(span: Span, args: tuple, result: Any) -> None:
    _, stats = result
    phases: dict[str, float] = {}
    for phase in stats.phases:
        phases[phase.name] = phases.get(phase.name, 0.0) + phase.seconds
    span.attrs = {
        "parallel": stats.parallel,
        "phases": phases,
        "tasks": sum(phase.tasks for phase in stats.phases),
        "morsels": stats.morsels,
    }
