"""High-level convenience API: a `Database` wrapping catalog + engines.

This is the entry point the examples use::

    from repro import Database, Column, INT, DOUBLE

    db = Database()
    db.create_table("t", [Column("a", INT), Column("b", DOUBLE)])
    db.load_rows("t", [(1, 2.0), (2, 4.0)])
    db.analyze()
    rows = db.execute("SELECT a, sum(b) AS s FROM t GROUP BY a")

The default engine is HIQUE (holistic code generation); the comparison
engines are available through :meth:`Database.engine`.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Iterable, Sequence

from repro.core.emitter import OPT_O2
from repro.core.engine import HiqueEngine
from repro.engines.volcano import VolcanoEngine
from repro.errors import ReproError
from repro.obs import (
    Observability,
    Trace,
    Tracer,
    WorkloadInsights,
    default_trace_enabled,
    storage_registry,
)
from repro.obs.explain import render_explain_analyze
from repro.parallel.intermediates import (
    IntermediateCache,
    IntermediateCacheStats,
)
from repro.parallel.stats import ExecutionStats
from repro.plan.optimizer import PlannerConfig
from repro.service import PreparedStatement, QueryService
from repro.storage.btree import BPlusTree
from repro.storage.buffer import BufferManager
from repro.storage.catalog import Catalog
from repro.storage.schema import Column, Schema
from repro.storage.table import Table

#: Engine configurations selectable through :meth:`Database.engine`.
ENGINE_KINDS = (
    "hique",  # holistic code generation (the paper's system)
    "hique-o0",  # holistic generation without inlining optimizations
    "volcano",  # optimized iterators
    "volcano-generic",  # generic iterators (PostgreSQL analogue)
    "systemx",  # optimized iterators + buffering (System X analogue)
    "vectorized",  # DSM column engine (MonetDB analogue)
)

#: ``EXPLAIN ANALYZE <sql>`` — executed through :meth:`Database.execute`.
_EXPLAIN_ANALYZE = re.compile(r"^\s*EXPLAIN\s+ANALYZE\s+(.*)$", re.I | re.S)


class Database:
    """A catalogue of tables plus lazily constructed engines.

    ``max_workers`` bounds *inter*-query concurrency (the session
    pool); each query runs on one thread.
    """

    def __init__(
        self,
        buffer_capacity: int = 4096,
        planner_config: PlannerConfig | None = None,
        cache_capacity: int = 64,
        max_workers: int = 4,
        catalog: Catalog | None = None,
        workers: int = 4,
        trace: bool | None = None,
        insights: bool = True,
    ):
        """``max_workers`` sizes the *session* pool (concurrent queries).
        ``workers`` is accepted and must be positive, and is otherwise
        unused (the end-to-end benchmark's harness still passes it):
        every plan runs on one thread, and cold disk pages overlap
        their waits through the buffer pool's read-ahead.
        ``trace=True`` records a span tree per query (see
        :meth:`last_trace` and ``EXPLAIN ANALYZE``); ``None`` defers to
        the ``REPRO_TRACE`` environment flag, then off — and the
        disabled path costs one integer check per instrumentation
        point.  ``insights=True`` (the default) keeps per-statement
        workload digests and a slow-query log (``REPRO_SLOW_MS``
        threshold); see :meth:`insights` / :meth:`insights_text`."""
        if catalog is not None:
            self.buffer = catalog.buffer
            self.catalog = catalog
        else:
            self.buffer = BufferManager(buffer_capacity)
            self.catalog = Catalog(self.buffer)
        self.planner_config = (
            planner_config if planner_config is not None else PlannerConfig()
        )
        self.cache_capacity = cache_capacity
        self.max_workers = max_workers
        if workers <= 0:
            raise ReproError("workers must be positive")
        self._engines: dict[str, Any] = {}
        self._engines_lock = threading.Lock()
        self._service: QueryService | None = None
        #: Version-keyed cache of statement answers and staged scan
        #: intermediates, shared by the code-generating engines'
        #: executors.  Keys carry the mutation epoch of every table an
        #: entry reads, so DML coherence is automatic; the catalogue
        #: listener below drops entries eagerly.
        self.intermediates = IntermediateCache()
        #: Per-database metrics registry + tracer: independent databases
        #: never share collectors or span trees.
        self.obs = Observability(
            tracer=Tracer(
                enabled=(
                    trace if trace is not None else default_trace_enabled()
                )
            )
        )
        self.obs.registry.register_collector(self._collect_db_metrics)
        #: Workload insights: per-statement digests, slow-query log and
        #: the cross-query operator profile.  Constructed eagerly (the
        #: service picks it up lazily) so its collector and trace
        #: listener cover the database's whole lifetime.
        self.insights_store = WorkloadInsights(
            obs=self.obs, enabled=insights
        )
        self.insights_store.intermediates_source = self.intermediates.stats
        # Engine-internal caches (compiled text cache, DSM copies) go
        # stale on DDL and statistics changes, same as service plans.
        self.catalog.add_listener(self._on_catalog_change)

    # -- schema & data ---------------------------------------------------------------
    def create_table(
        self, name: str, columns: Sequence[Column] | Schema
    ) -> Table:
        schema = columns if isinstance(columns, Schema) else Schema(columns)
        return self.catalog.create_table(name, schema)

    def load_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        # Bulk loads are writers: take the catalogue's exclusive gate so
        # no concurrent read query observes a half-loaded table.
        with self.catalog.exclusive():
            table = self.catalog.table(name)
            try:
                return table.load_rows(rows)
            finally:
                # A load moves the table's version, even one that fails
                # part way; tell the fine-grained caches while the write
                # gate is still held.
                self.catalog.notify_dml(name)

    def analyze(self, name: str | None = None) -> None:
        self.catalog.analyze(name)

    def create_index(self, table: str, column: str) -> BPlusTree:
        """Build a B+-tree over ``table.column`` (idempotent).

        Cached plans are re-optimized, so scans with a sargable filter
        on the column start probing the index, and UPDATE/DELETE
        located through it maintain it entry by entry.
        """
        return self.catalog.create_index(table, column)

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    # -- engines -----------------------------------------------------------------------
    def engine(self, kind: str = "hique"):
        """An engine instance by configuration name (cached)."""
        if kind not in ENGINE_KINDS:
            raise ReproError(
                f"unknown engine {kind!r}; choose from {ENGINE_KINDS}"
            )
        # Lock-free hit path; the lock keeps two sessions cold-starting
        # the same kind from building (and leaking) duplicate engines.
        engine = self._engines.get(kind)
        if engine is None:
            with self._engines_lock:
                engine = self._engines.get(kind)
                if engine is None:
                    engine = self._build_engine(kind)
                    self._engines[kind] = engine
        return engine

    def _build_engine(self, kind: str):
        config = self.planner_config
        if kind == "hique":
            return self._wire_intermediates(
                HiqueEngine(
                    self.catalog,
                    planner_config=config,
                    obs=self.obs,
                )
            )
        if kind == "hique-o0":
            return self._wire_intermediates(
                HiqueEngine(
                    self.catalog,
                    planner_config=config,
                    opt_level="O0",
                    obs=self.obs,
                )
            )
        if kind == "volcano":
            return VolcanoEngine(
                self.catalog, planner_config=config, obs=self.obs
            )
        if kind == "volcano-generic":
            return VolcanoEngine(
                self.catalog, generic=True, planner_config=config,
                obs=self.obs,
            )
        if kind == "systemx":
            return VolcanoEngine(
                self.catalog, buffered=True, planner_config=config,
                obs=self.obs,
            )
        # Imported on first use: it pulls in numpy (see repro/__init__.py).
        from repro.engines.vectorized import VectorizedEngine

        return VectorizedEngine(
            self.catalog, planner_config=config, obs=self.obs
        )

    def _wire_intermediates(self, engine):
        """Point an engine's executor at the database's shared,
        version-keyed intermediate cache, where answers and staged scan
        outputs land."""
        engine.parallel.intermediates = self.intermediates
        return engine

    def last_exec_stats(self, engine: str = "hique") -> ExecutionStats | None:
        """How the given engine's most recent execution ran (or None)."""
        built = self._engines.get(engine)
        return getattr(built, "last_exec_stats", None)

    # -- observability -------------------------------------------------------------------
    def _collect_db_metrics(self, registry) -> None:
        """Render-time sampler for storage-spine and cache gauges."""
        stats = self.buffer.stats
        registry.sample("repro_buffer_capacity_pages", self.buffer.capacity)
        registry.sample("repro_buffer_hits_total", stats.hits)
        registry.sample("repro_buffer_misses_total", stats.misses)
        registry.sample("repro_buffer_evictions_total", stats.evictions)
        tables = list(self.catalog.tables())
        registry.sample(
            "repro_index_probes_total", sum(t.index_probes for t in tables)
        )
        registry.sample(
            "repro_index_declined_total",
            sum(t.index_declined for t in tables),
        )
        inter = self.intermediates.stats()
        registry.sample(
            "repro_intermediate_cache_capacity_bytes", inter.capacity_bytes
        )
        registry.sample("repro_intermediate_cache_entries", inter.entries)
        registry.sample("repro_intermediate_cache_bytes", inter.bytes)
        registry.sample("repro_intermediate_cache_hits_total", inter.hits)
        registry.sample(
            "repro_intermediate_cache_misses_total", inter.misses
        )
        registry.sample(
            "repro_intermediate_cache_answers_total", inter.answers
        )
        registry.sample("repro_intermediate_cache_stale_total", inter.stale)
        registry.sample(
            "repro_intermediate_cache_extended_total", inter.extended
        )
        registry.sample(
            "repro_intermediate_cache_evictions_total", inter.evictions
        )
        registry.sample(
            "repro_intermediate_cache_invalidations_total",
            inter.invalidations,
        )
        registry.sample(
            "repro_intermediate_cache_sightings_total", inter.sightings
        )
        registry.sample(
            "repro_intermediate_cache_admitted_total", inter.admitted
        )
        registry.sample(
            "repro_intermediate_cache_sighting_evictions_total",
            inter.sighting_evictions,
        )

    def set_trace(self, enabled: bool) -> None:
        """Turn per-query span recording on or off at run time."""
        self.obs.tracer.enabled = enabled

    def insights(self) -> WorkloadInsights:
        """The workload insights: digests, slow log, operator profile."""
        return self.insights_store

    def insights_text(self, top: int = 10) -> str:
        """Top-k digest table + slow-query log + folded profile."""
        return self.insights_store.render_text(top=top)

    def set_insights(self, enabled: bool) -> None:
        """Toggle workload-insights collection at run time."""
        self.insights_store.enabled = enabled

    @property
    def trace_enabled(self) -> bool:
        return self.obs.tracer.enabled

    def last_trace(self) -> Trace | None:
        """The most recently completed query's span tree (or None)."""
        return self.obs.tracer.last_trace()

    def metrics_text(self) -> str:
        """All metrics in Prometheus text exposition format.

        Concatenates this database's registry (queries, plan cache,
        sessions, buffer pool) with the process-wide storage
        registry (disk pread latency, shared across databases).
        """
        own = self.obs.registry.render_text()
        storage = storage_registry().render_text()
        if own and storage:
            return own + "\n" + storage
        return own or storage

    def explain_analyze(
        self,
        sql: str,
        engine: str = "hique",
        params: Sequence[Any] | None = None,
    ) -> str:
        """Execute the query with tracing forced on and render the plan
        annotated with measured per-operator times, rows, the path each
        scan took and buffer traffic."""
        if engine not in ENGINE_KINDS:
            raise ReproError(
                f"unknown engine {engine!r}; choose from {ENGINE_KINDS}"
            )
        tracer = self.obs.tracer
        with tracer.ensure_enabled():
            with tracer.span("explain_analyze", "api") as root:
                self.service.execute(sql, params=params, engine=engine)
        trace = root.trace if root is not None else None
        if trace is None:
            raise ReproError("tracing produced no span tree")
        plan = self.service.physical_plan(sql, engine=engine, params=params)
        return render_explain_analyze(plan, trace)

    def _on_catalog_change(
        self, table: str | None, kind: str = "ddl"
    ) -> None:
        if kind == "dml":
            # A mutation moved one table's version: the DSM copy and
            # the answers that read the table are stale, and so are its
            # stagings unless the table only grew (an append extends
            # them); compiled code is not (generated scans read live
            # pages), so the plan cache survives.
            vectorized = self._engines.get("vectorized")
            if vectorized is not None:
                vectorized.invalidate(table)
            written = self.catalog.table(table)
            self.intermediates.invalidate_table(
                table, stagings=written.rewritten == written.version
            )
            return
        vectorized = self._engines.get("vectorized")
        if vectorized is not None:
            vectorized.invalidate(table)
        # DDL recreating a table restarts its version epoch, which
        # would alias old keys: drop everything.
        self.intermediates.clear()

    # -- the query service --------------------------------------------------------------
    @property
    def service(self) -> QueryService:
        """The prepared-statement/plan-cache front-end (lazily built)."""
        if self._service is None:
            self._service = QueryService(
                self,
                cache_capacity=self.cache_capacity,
                max_workers=self.max_workers,
            )
        return self._service

    def prepare(
        self, sql: str, engine: str = "hique"
    ) -> PreparedStatement:
        """Prepare one statement shape for repeated execution."""
        if engine not in ENGINE_KINDS:
            raise ReproError(
                f"unknown engine {engine!r}; choose from {ENGINE_KINDS}"
            )
        return self.service.prepare(sql, engine=engine)

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        query_timeout: float | None = None,
    ):
        """Serve this database over TCP on a background thread.

        Newline-delimited JSON protocol (see :mod:`repro.server`),
        backed by the query service's session pool and admission
        control.  Returns a :class:`repro.server.ServerHandle` whose
        ``address`` is the bound (host, port) — pass ``port=0`` for an
        OS-assigned one — and whose ``stop()`` drains in-flight
        queries before shutting down.  ``query_timeout`` bounds each
        query's wall time (typed ``timeout`` response).
        """
        from repro.server import serve_in_thread

        return serve_in_thread(
            self,
            host=host,
            port=port,
            query_timeout=query_timeout,
        )

    # -- querying -----------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        engine: str = "hique",
        params: Sequence[Any] | None = None,
    ) -> list[tuple]:
        """Run one query through the chosen engine.

        Execution goes through the query service, so repeated statement
        shapes — identical text, or text differing only in WHERE-clause
        constants — reuse one cached compiled plan.  ``params`` fills
        explicit ``?`` placeholders.
        """
        if engine not in ENGINE_KINDS:
            raise ReproError(
                f"unknown engine {engine!r}; choose from {ENGINE_KINDS}"
            )
        match = _EXPLAIN_ANALYZE.match(sql)
        if match is not None:
            text = self.explain_analyze(
                match.group(1), engine=engine, params=params
            )
            return [(line,) for line in text.splitlines()]
        return self.service.execute(sql, params=params, engine=engine)

    def explain(self, sql: str) -> str:
        """The physical plan the shared optimizer produces."""
        hique: HiqueEngine = self.engine("hique")
        return hique.explain(sql)

    def generated_source(
        self, sql: str, opt_level: str = OPT_O2
    ) -> str:
        """The HIQUE-generated Python source for a query."""
        hique: HiqueEngine = self.engine("hique")
        return hique.generate_source(sql, opt_level=opt_level)

    # -- lifecycle -----------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the service, release engine resources and stop the
        buffer pool's read-ahead fetchers."""
        self.insights_store.close()
        self.obs.registry.unregister_collector(self._collect_db_metrics)
        self.catalog.remove_listener(self._on_catalog_change)
        if self._service is not None:
            self._service.close()
            self._service = None
        for engine in self._engines.values():
            close = getattr(engine, "close", None)
            if callable(close):
                close()
        self._engines.clear()
        self.buffer.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
