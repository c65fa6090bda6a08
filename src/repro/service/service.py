"""The concurrent session front-end over the plan/code cache.

A :class:`QueryService` sits between clients and the engines:

* it normalizes incoming statements (literal parameterization), so that
  ``WHERE a = 1`` and ``WHERE a = 2`` share one compiled plan;
* it keeps the :class:`~repro.service.cache.PlanCache` of prepared
  queries — for the code-generating engines the cached value is the
  fully compiled module, executed with a fresh parameter vector each
  time, which skips all four Table III preparation stages on a hit;
* it serves the interpreting comparison engines through parameter
  substitution, so every engine kind answers prepared statements with
  identical rows;
* it fronts concurrent sessions with a bounded worker pool and
  admission accounting.

Read queries execute **concurrently**: the storage spine (buffer pool,
page files, catalogue) is thread-safe for readers, so engine execution
runs under the *read* side of the catalogue's
:class:`~repro.parallel.latch.ReadWriteLatch` — any number of sessions
scan at once, overlapping their I/O waits — while writers (DDL, bulk
loads, ``analyze``) take the exclusive side.  Only plan *preparation*
(optimize + generate + compile on a cache miss) is serialized, by a
per-statement build lock, so a thundering herd on one cold statement
compiles it once instead of N times while distinct cold statements
still prepare concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.engine import HiqueEngine, PreparedQuery
from repro.errors import (
    AdmissionError,
    CatalogError,
    ServiceError,
)
from repro.obs import current_span, default_observability
from repro.plan.optimizer import Optimizer
from repro.service.cache import CacheStats, PlanCache
from repro.service.dml import dml_param_dtypes, execute_dml
from repro.service.statement import PreparedStatement
from repro.sql import ast
from repro.sql.binder import Binder
from repro.sql.bound import param_dtypes_of
from repro.sql.parameters import parameterize_statement
from repro.sql.parser import parse_statement


@dataclass
class ServiceStats:
    """Point-in-time service counters (admission + cache)."""

    queries: int
    #: Raw-text fast-path hits: repeats of an already-seen statement
    #: text skip even the parse step.
    text_hits: int
    submitted: int
    completed: int
    failed: int
    rejected: int
    pending: int
    cache: CacheStats


@dataclass
class _CachedPlan:
    """What the plan cache stores for one (engine, statement) pair."""

    engine_kind: str
    key: str
    #: Compiled query for the code-generating engines; None otherwise.
    prepared: PreparedQuery | None = None
    #: Normalized AST for the interpreting engines.
    query: ast.Query | None = field(default=None, repr=False)
    #: Bound-and-optimized physical plan for the interpreting engines —
    #: parameters stay symbolic and are supplied per execution, so
    #: repeats skip parse + bind + optimize exactly like codegen plans
    #: skip the four Table III stages.
    physical: Any = field(default=None, repr=False)
    #: Bound DML statement (INSERT/UPDATE/DELETE); None for queries.
    bound: Any = field(default=None, repr=False)
    #: Parameter index → bound type, for execute-time value checking.
    param_dtypes: dict = field(default_factory=dict, repr=False)
    #: The tables this plan was optimized against: the bound query's
    #: FROM entries; empty for DML plans, which hold no optimizer
    #: decisions.
    dep_tables: tuple = field(default=(), repr=False)
    #: ``(table, row count)`` per dep table at optimization time.  A
    #: read plan survives DML — its code reads page and row counts when
    #: it runs — until a table's row count leaves [½×, 2×] of this.
    deps: tuple[tuple[str, int], ...] = field(init=False)
    #: The dep tables' versions when the deps were last found current.
    #: Every row-count change moves a version, so while these have not
    #: moved the deps need no re-check.
    versions: tuple[int, ...] = field(init=False, repr=False)
    #: ``(index, expects a string, dtype)`` per typed parameter, in
    #: index order: what :func:`_check_param_values` tests values by.
    param_checks: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Versions first: a row count read after them is at least as
        # new, so a later version compare never hides a change.
        self.versions = tuple([table.version for table in self.dep_tables])
        self.deps = tuple(
            (table.name.lower(), table.num_rows) for table in self.dep_tables
        )
        self.param_checks = tuple(
            (index, dtype.is_string, dtype)
            for index, dtype in sorted(self.param_dtypes.items())
        )


#: Engine kinds served by parameterized generated code.
_CODEGEN_KINDS = ("hique", "hique-o0")


def _tables_of(bound) -> tuple:
    """The Table objects of a bound statement's FROM entries."""
    return tuple(bound_table.table for bound_table in bound.tables)


def _check_param_values(checks: tuple, values: tuple) -> None:
    """Reject values whose type family contradicts the bound plan.

    A compiled plan was type-checked against the statement's bound
    parameter types; executing it with, say, a string where an INT was
    bound would either raise a raw TypeError from generated code or —
    worse — compare unequal everywhere and silently return no rows.
    The interpreting engines need no such check: they re-bind per call.
    ``checks`` is the plan's :attr:`_CachedPlan.param_checks`.
    """
    for index, is_string, dtype in checks:
        value = values[index]
        if is_string:
            if isinstance(value, str):
                continue
            raise ServiceError(
                f"parameter ?{index + 1} is bound as {dtype.name}; "
                f"got {type(value).__name__} {value!r}"
            )
        if isinstance(value, (str, bool)):
            raise ServiceError(
                f"parameter ?{index + 1} is bound as {dtype.name}; "
                f"got {type(value).__name__} {value!r}"
                + (
                    " (pass a datetime.date or a day ordinal)"
                    if dtype.code == "date"
                    else ""
                )
            )


class QueryService:
    """Prepared-statement service over a database's engines.

    ``database`` is any object exposing ``catalog`` and
    ``engine(kind)`` — in practice :class:`repro.api.Database`, which
    also owns the service's lifecycle.
    """

    def __init__(
        self,
        database,
        default_engine: str = "hique",
        cache_capacity: int = 64,
        max_workers: int = 4,
        max_pending: int | None = None,
    ):
        self.database = database
        self.default_engine = default_engine
        self.cache = PlanCache(cache_capacity)
        self.max_workers = max_workers
        self.max_pending = (
            max_pending if max_pending is not None else max_workers * 8
        )

        #: (engine_kind, raw sql) → the statement it resolves to, shared
        #: by every one-shot execution of that text; bounded so
        #: adversarial literal-varying traffic cannot grow it without
        #: limit.
        self._text_index: "OrderedDict[tuple[str, str], PreparedStatement]" = (
            OrderedDict()
        )
        self._text_capacity = max(cache_capacity * 8, 128)

        #: Per-statement build locks: a thundering herd on one cold
        #: statement compiles it once, while *distinct* cold statements
        #: build concurrently.  Entries are dropped after the build, so
        #: the map stays as small as the set of in-flight preparations.
        self._build_locks: dict[tuple, threading.Lock] = {}
        #: Readers-writer gate shared with the catalogue: queries take
        #: the read side, DDL/loads/analyze the write side.
        self._gate = database.catalog.gate
        self._state_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

        self._queries = 0
        self._text_hits = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._pending = 0

        #: Workload insights (digest store + slow-query log), owned by
        #: the database; None for bare test harnesses without one.
        self.insights = getattr(database, "insights_store", None)
        #: Per-thread scratch: the plan-cache outcome of the execution
        #: running on this thread, captured even when tracing is off so
        #: the digest store can count cache hits.
        self._local = threading.local()
        #: The buffer pool's counters, whose delta per execution is the
        #: digest's page traffic when no span tree records it.
        self._pages = getattr(getattr(database, "buffer", None), "stats", None)

        #: Observability pair shared with the owning database (falls
        #: back to the process-wide default for bare test harnesses).
        self.obs = getattr(database, "obs", None) or default_observability()
        #: Per-engine query latency histograms, cached so the hot path
        #: pays one dict lookup instead of a registry get-or-create.
        self._query_hist: dict[str, Any] = {}
        self._queue_hist = self.obs.registry.histogram(
            "repro_session_queue_seconds"
        )
        self.obs.registry.register_collector(self._collect_metrics)

        self._listener = self._on_catalog_change
        database.catalog.add_listener(self._listener)

    # -- statement resolution ------------------------------------------------------
    def prepare(
        self, sql: str, engine: str | None = None
    ) -> PreparedStatement:
        """Normalize, plan, generate and compile one statement shape.

        The compiled plan lands in the service cache; the returned
        handle executes it with varying parameters.
        """
        kind = engine or self.default_engine
        shared = self._resolve(sql, kind)
        # A handle of its own: it belongs to one caller, while the
        # text index's statement serves every one-shot execution.
        statement = PreparedStatement(
            service=self,
            engine_kind=kind,
            sql=sql,
            key=shared.key,
            parameterized=shared.parameterized,
        )
        self._ensure_plan(statement, count=False)
        return statement

    def _resolve(self, sql: str, kind: str) -> PreparedStatement:
        """Raw SQL text → statement, via the text fast path if possible."""
        text_key = (kind, sql)
        with self._state_lock:
            statement = self._text_index.get(text_key)
            if statement is not None:
                self._text_index.move_to_end(text_key)
                self._text_hits += 1
                return statement
        parameterized = parameterize_statement(parse_statement(sql))
        statement = PreparedStatement(
            service=self,
            engine_kind=kind,
            sql=sql,
            key=parameterized.key,
            parameterized=parameterized,
        )
        with self._state_lock:
            self._text_index[text_key] = statement
            while len(self._text_index) > self._text_capacity:
                self._text_index.popitem(last=False)
        return statement

    def _ensure_plan(
        self, statement: PreparedStatement, count: bool = True
    ) -> _CachedPlan:
        """The cached plan for a statement, building it on a miss.

        Acquires the read gate around lookup and build; callers that
        also *execute* the plan use :meth:`_plan_under_gate` inside
        their own read scope instead (the gate is not reentrant).
        """
        with self._gate.read():
            return self._plan_under_gate(statement, count)

    def _plan_under_gate(
        self, statement: PreparedStatement, count: bool = True
    ) -> _CachedPlan:
        """Lookup/build while the caller holds the read gate.

        Because catalogue writers invalidate the cache *before*
        releasing the write gate, an entry found here cannot be stale —
        holding the gate across lookup and execution is what makes a
        cached plan safe against concurrent DDL.

        The key carries the parameter type signature besides the
        normalized SQL: ``WHERE c = 'x1'`` and ``WHERE c = 3`` render
        identically but must bind (and possibly fail) separately.

        ``count`` ties hit/miss statistics to *executions*: the execute
        path counts, while prepare() and name introspection peek — so
        "preparation saved" means seconds an execution actually
        avoided, not how often the entry was looked at.
        """
        cache_key = statement.cache_key
        entry = (
            self.cache.get(cache_key)
            if count
            else self.cache.peek(cache_key)
        )
        if entry is not None and not self._deps_current(entry.value):
            # The plan's algorithm and partition choices were sized for
            # a table that has since halved or doubled (or was dropped
            # behind the listeners' back): optimize again.  The stale
            # hit was already counted — acceptable skew for a check
            # that fires O(log n) times over a table's growth.
            self.cache.invalidate(cache_key)
            entry = None
        if count:
            self._local.cache_hit = entry is not None
            span = current_span()
            if span is not None:
                span.set(cache_hit=entry is not None)
        if entry is not None:
            return entry.value
        with self._state_lock:
            lock = self._build_locks.setdefault(cache_key, threading.Lock())
        try:
            with lock:
                # A racer may have built the plan while we waited; this
                # thread saved nothing, so peek rather than count a hit.
                entry = self.cache.peek(cache_key)
                if entry is not None:
                    return entry.value
                plan, cost = self._build_plan(statement)
                if plan.prepared is not None:
                    size = plan.prepared.compiled.source_bytes
                else:
                    size = len(statement.key.encode("utf-8"))
                self.cache.put(
                    cache_key,
                    plan,
                    cost_seconds=cost,
                    size_bytes=size,
                    deps=plan.deps,
                )
        finally:
            with self._state_lock:
                self._build_locks.pop(cache_key, None)
        return plan

    def _deps_current(self, plan: _CachedPlan) -> bool:
        """Whether every table is still within [½×, 2×] of the row
        count the plan was optimized against.

        One compare of the tables' versions while no write moved one;
        otherwise a catalogue lookup per table, and the versions it
        finds current are the next compare's.
        """
        tables = plan.dep_tables
        versions = tuple([table.version for table in tables])
        if versions == plan.versions:
            return True
        catalog = self.database.catalog
        for (name, planned), table in zip(plan.deps, tables):
            try:
                if catalog.table(name) is not table:
                    return False
            except CatalogError:
                return False
            rows = table.num_rows
            if not planned <= 2 * rows <= 4 * planned:
                return False
        plan.versions = versions
        return True

    def _build_plan(
        self, statement: PreparedStatement
    ) -> tuple[_CachedPlan, float]:
        # Caller holds the read gate (or the write gate for DML) and
        # the statement's build lock.
        kind = statement.engine_kind
        parameterized = statement.parameterized
        param_dtypes = {
            i: dtype
            for i, dtype in enumerate(parameterized.dtypes)
            if dtype is not None
        }
        if statement.is_dml:
            # Binding resolves the target table and type-checks values;
            # nothing in it depends on the table's contents, so only
            # wholesale DDL invalidation removes it.
            started = time.perf_counter()
            bound = Binder(self.database.catalog).bind_statement(
                parameterized.query, param_dtypes=param_dtypes
            )
            plan = _CachedPlan(
                engine_kind="dml",
                key=statement.key,
                bound=bound,
                param_dtypes=dml_param_dtypes(bound),
            )
            return plan, time.perf_counter() - started
        if kind in _CODEGEN_KINDS:
            engine: HiqueEngine = self.database.engine(kind)
            prepared = engine.prepare(
                statement.key,
                query=parameterized.query,
                param_dtypes=param_dtypes,
                use_cache=False,
            )
            return (
                _CachedPlan(
                    engine_kind=kind,
                    key=statement.key,
                    prepared=prepared,
                    param_dtypes=param_dtypes_of(prepared.bound),
                    dep_tables=_tables_of(prepared.bound),
                ),
                prepared.timings.total_seconds,
            )
        # Interpreting engines: bind and optimize once, with parameters
        # kept symbolic.  Repeated executions supply fresh values into
        # the cached physical plan — the same amortization the codegen
        # path gets, minus compilation.
        started = time.perf_counter()
        engine = self.database.engine(kind)
        bound = engine.binder.bind(
            parameterized.query, param_dtypes=param_dtypes
        )
        physical = Optimizer(
            self.database.catalog, engine.planner_config
        ).plan(bound)
        plan = _CachedPlan(
            engine_kind=kind,
            key=statement.key,
            query=parameterized.query,
            physical=physical,
            param_dtypes=param_dtypes_of(bound),
            dep_tables=_tables_of(bound),
        )
        return plan, time.perf_counter() - started

    # -- execution -----------------------------------------------------------------
    def execute(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        engine: str | None = None,
    ) -> list[tuple]:
        """One-shot execution through the cache.

        Equivalent to ``prepare(sql, engine).execute(params)`` but a
        single call, which is how ad-hoc traffic benefits from the
        cache without managing statement handles.
        """
        kind = engine or self.default_engine
        statement = self._resolve(sql, kind)
        return self.execute_statement(statement, params, allow_override=False)

    def execute_statement(
        self,
        statement: PreparedStatement,
        params: Sequence[Any] | None = None,
        allow_override: bool = True,
    ) -> list[tuple]:
        """Run a prepared statement with one parameter vector."""
        local = self._local
        # ``close()`` rejects *new* work but drains the session pool:
        # a query that won admission before the close must complete,
        # so the pool's own workers (marked via the thread-local) pass.
        if self._closed and not getattr(local, "admitted", False):
            raise ServiceError("query service is closed")
        values = statement.resolve_params(params, allow_override)
        with self._state_lock:
            self._queries += 1
        kind = statement.engine_kind
        insights = self.insights
        record = insights is not None and insights.enabled
        pages_before: tuple[int, int] | None = None
        if record:
            local.cache_hit = None
            pages = self._pages
            if pages is not None:
                pages_before = (pages.hits, pages.misses)
        span = None
        rows_out: list[tuple] | None = None
        error: BaseException | None = None
        started = time.perf_counter()
        try:
            with self.obs.tracer.span(
                "query",
                "service",
                engine=kind,
                statement=statement.key[:200],
            ) as span:
                if statement.is_dml:
                    rows = self._execute_dml_statement(statement, values)
                elif kind in _CODEGEN_KINDS:
                    # One read scope spans plan lookup AND execution, so
                    # a concurrent DDL cannot invalidate the plan in
                    # between (its compiled module embeds table objects).
                    engine: HiqueEngine = self.database.engine(kind)
                    with self._gate.read():
                        plan = self._plan_under_gate(statement)
                        _check_param_values(plan.param_checks, values)
                        rows = engine.execute_prepared(
                            plan.prepared, params=values
                        )
                else:
                    rows = self._execute_interpreted(
                        kind, statement, values
                    )
                if span is not None:
                    span.set(rows=len(rows))
                rows_out = rows
                return rows
        except BaseException as exc:
            error = exc
            raise
        finally:
            elapsed = time.perf_counter() - started
            self._query_histogram(kind).observe(elapsed)
            if record:
                self._record_insights(
                    insights,
                    statement,
                    elapsed,
                    rows_out,
                    error,
                    span,
                    pages_before,
                )

    def _record_insights(
        self,
        insights,
        statement: PreparedStatement,
        elapsed: float,
        rows: list[tuple] | None,
        error: BaseException | None,
        span,
        pages_before: tuple[int, int] | None,
    ) -> None:
        """Fold one finished execution into the workload insights.

        Buffer traffic comes from the span tree when tracing recorded
        one (exact per query); otherwise from the buffer pool's global
        counters, whose delta is exact for a single session and only
        approximate under concurrent queries.  The statement keeps the
        digest it folded into, so its next execution skips the lookup.
        Never raises: a failure here is counted, not allowed to fail
        the observed query.
        """
        try:
            pages_hit = pages_missed = 0
            if span is not None:
                for node in span.walk():
                    pages_hit += node.pages_hit
                    pages_missed += node.pages_missed
            elif pages_before is not None:
                pages = self._pages
                pages_hit = max(0, pages.hits - pages_before[0])
                pages_missed = max(0, pages.misses - pages_before[1])
            statement.digest = insights.record(
                statement.engine_kind,
                statement.key,
                elapsed,
                rows=len(rows) if rows is not None else 0,
                error=error,
                cache_hit=getattr(self._local, "cache_hit", None),
                pages_hit=pages_hit,
                pages_missed=pages_missed,
                trace=span.trace if span is not None else None,
                tables=statement.tables,
                digest=statement.digest,
            )
        except Exception:
            self.obs.registry.counter(
                "repro_insights_record_errors_total"
            ).inc()

    def _query_histogram(self, kind: str):
        hist = self._query_hist.get(kind)
        if hist is None:
            hist = self.obs.registry.histogram(
                "repro_query_seconds", engine=kind
            )
            self._query_hist[kind] = hist
        return hist

    def _execute_interpreted(
        self, kind: str, statement: PreparedStatement, values: tuple
    ) -> list[tuple]:
        """Run an interpreting engine's cached physical plan.

        One read scope spans plan lookup and execution — the cached
        plan embeds table objects, so a concurrent writer must not
        slip between the two.  Parameters stay symbolic in the plan
        and are supplied per call, mirroring the codegen path.
        """
        engine = self.database.engine(kind)
        with self._gate.read():
            plan = self._plan_under_gate(statement)
            _check_param_values(plan.param_checks, values)
            return engine.execute_plan(plan.physical, params=values)

    def _execute_dml_statement(
        self, statement: PreparedStatement, values: tuple
    ) -> list[tuple]:
        """Run one DML statement under the catalogue's write gate.

        The result is a single ``(rows_affected,)`` row, uniform across
        every front-end.  Plan lookup happens under the same exclusive
        scope as execution — cheap (DML plans are just bound ASTs) and
        race-free: the version epoch moves and the listeners fire
        before the gate is released.
        """
        catalog = self.database.catalog
        with catalog.exclusive():
            plan = self._plan_under_gate(statement)
            _check_param_values(plan.param_checks, values)
            count = execute_dml(catalog, plan.bound, values)
        return [(count,)]

    def execute_many(
        self,
        sql: str,
        param_sets: Sequence[Sequence[Any]],
        engine: str | None = None,
    ) -> list[list[tuple]]:
        """Prepare once, execute once per parameter vector, in order."""
        statement = self.prepare(sql, engine)
        return statement.execute_many(param_sets)

    def statement_output_names(
        self, statement: PreparedStatement
    ) -> list[str]:
        """Column names of a statement's result, from the cached plan."""
        plan = self._ensure_plan(statement, count=False)
        if plan.bound is not None:
            return ["rows_affected"]
        if plan.prepared is not None:
            return plan.prepared.plan.output_names
        return plan.physical.output_names

    def physical_plan(
        self,
        sql: str,
        engine: str | None = None,
        params: Sequence[Any] | None = None,
    ):
        """The physical plan a statement would execute (for EXPLAIN).

        Every engine kind now caches a parameterized plan, so this is
        the cached plan in both cases; ``params`` is accepted for
        interface stability but does not change the plan's shape.
        """
        kind = engine or self.default_engine
        statement = self._resolve(sql, kind)
        if statement.is_dml:
            raise ServiceError(
                "DML statements execute directly against storage; "
                "there is no physical plan to explain"
            )
        plan = self._ensure_plan(statement, count=False)
        if plan.prepared is not None:
            return plan.prepared.plan
        return plan.physical

    # -- concurrent sessions ---------------------------------------------------------
    def submit(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        engine: str | None = None,
    ) -> "Future[list[tuple]]":
        """Queue a query on the session pool; returns a future.

        Admission is bounded: once ``max_pending`` queries are in
        flight, further submissions raise
        :class:`~repro.errors.AdmissionError` instead of queuing without
        limit — backpressure a serving system must give its clients.
        """
        return self._submit_work(
            lambda: self.execute(sql, params, engine)
        )

    def submit_statement(
        self,
        statement: PreparedStatement,
        params: Sequence[Any] | None = None,
    ) -> "Future[list[tuple]]":
        """Queue one prepared-statement execution on the session pool.

        Same admission accounting and backpressure as :meth:`submit`,
        but over an already-prepared handle — the path a server
        front-end uses for per-connection prepared-statement reuse.
        """
        return self._submit_work(
            lambda: self.execute_statement(statement, params)
        )

    def _submit_work(self, work) -> "Future[list[tuple]]":
        if self._closed:
            raise ServiceError("query service is closed")
        with self._state_lock:
            if self._pending >= self.max_pending:
                self._rejected += 1
                raise AdmissionError(
                    f"session pool saturated ({self._pending} pending, "
                    f"limit {self.max_pending})"
                )
            self._pending += 1
            self._submitted += 1
            pool = self._ensure_pool()
        try:
            future = pool.submit(
                self._run_session, work, time.perf_counter()
            )
        except RuntimeError as exc:
            # close() shut the pool down between our admission check and
            # the submit; release the slot we claimed.
            with self._state_lock:
                self._pending -= 1
                self._rejected += 1
            raise ServiceError("query service is closed") from exc
        future.add_done_callback(self._session_cancelled)
        return future

    def _ensure_pool(self) -> ThreadPoolExecutor:
        # Caller holds ``_state_lock``.
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-session",
            )
        return self._pool

    def _run_session(
        self, work, submitted_at: float | None = None
    ) -> list[tuple]:
        # Counters update in the worker, *before* the future resolves:
        # a caller returning from future.result() then observes stats()
        # already settled (a done-callback would race that read).
        if submitted_at is not None:
            self._queue_hist.observe(time.perf_counter() - submitted_at)
        # Mark this worker as running *admitted* work: close() drains
        # the pool, and a session that won admission before the close
        # must execute instead of failing "query service is closed".
        self._local.admitted = True
        try:
            result = work()
        except BaseException:
            with self._state_lock:
                self._pending -= 1
                self._failed += 1
            raise
        finally:
            self._local.admitted = False
        with self._state_lock:
            self._pending -= 1
            self._completed += 1
        return result

    def _session_cancelled(self, future: "Future[list[tuple]]") -> None:
        # Only a future cancelled while still queued skips _run_session;
        # its admission slot is released here.
        if future.cancelled():
            with self._state_lock:
                self._pending -= 1
                self._failed += 1

    # -- invalidation ------------------------------------------------------------------
    def _on_catalog_change(
        self, table: str | None, kind: str = "ddl"
    ) -> None:
        """A catalogue mutation happened: invalidate what it staled.

        DML moves one table's version epoch but changes no schema or
        statistics, and compiled code reads page and row counts when
        it runs, so every cached plan survives it (the lookup path
        re-optimizes once a row count has drifted 2×; staged
        intermediates, keyed on the version, are the owning database's
        to drop).  DDL, index creation and ``analyze`` can change plan
        shape and plan choice, so they keep the wholesale policy (the
        paper's systems do the same — a prepared statement is
        re-optimized when its dependencies change).
        """
        if kind == "dml" and table is not None:
            if self.insights is not None:
                self.insights.on_catalog_change(table, kind="dml")
            return
        self.cache.invalidate()
        with self._state_lock:
            self._text_index.clear()
        # Digests describe executions of the invalidated plans; reset
        # them with the same blanket policy the plan cache uses.
        if self.insights is not None:
            self.insights.on_catalog_change(table, kind=kind)

    # -- introspection -----------------------------------------------------------------
    def _collect_metrics(self, registry) -> None:
        """Render-time sampler: one source for ``.cache``, the shell
        timing line and ``metrics_text()``.

        Samples the authoritative structs (admission counters,
        :class:`~repro.service.cache.CacheStats`, per-entry cache
        stats) instead of double-counting on every update.
        """
        stats = self.stats()
        registry.sample("repro_service_queries_total", stats.queries)
        registry.sample("repro_service_text_hits_total", stats.text_hits)
        registry.sample("repro_service_submitted_total", stats.submitted)
        registry.sample("repro_service_completed_total", stats.completed)
        registry.sample("repro_service_failed_total", stats.failed)
        registry.sample("repro_service_rejected_total", stats.rejected)
        registry.sample("repro_service_pending", stats.pending)
        cache = stats.cache
        registry.sample("repro_plan_cache_capacity", cache.capacity)
        registry.sample("repro_plan_cache_size", cache.size)
        registry.sample("repro_plan_cache_hits_total", cache.hits)
        registry.sample("repro_plan_cache_misses_total", cache.misses)
        registry.sample(
            "repro_plan_cache_evictions_total", cache.evictions
        )
        registry.sample(
            "repro_plan_cache_invalidations_total", cache.invalidations
        )
        registry.sample(
            "repro_plan_cache_seconds_saved_total", cache.seconds_saved
        )
        for entry in self.cache.entries():
            kind, key = entry.key[0], entry.key[1]
            label = f"{kind}:{key}"[:120]
            registry.sample(
                "repro_plan_cache_entry_hits",
                entry.hits,
                statement=label,
            )
            registry.sample(
                "repro_plan_cache_entry_seconds_saved",
                entry.seconds_saved,
                statement=label,
            )

    def stats(self) -> ServiceStats:
        with self._state_lock:
            return ServiceStats(
                queries=self._queries,
                text_hits=self._text_hits,
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                rejected=self._rejected,
                pending=self._pending,
                cache=self.cache.stats(),
            )

    # -- lifecycle ---------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting work, drain the pool, release the cache.

        ``_closed`` flips first so *new* submissions and one-shot
        executions are rejected immediately, but sessions already
        admitted to the pool drain to completion (their worker threads
        carry an ``admitted`` mark past the closed check) — a graceful
        shutdown finishes the work it accepted.
        """
        if self._closed:
            return
        self._closed = True
        self.obs.registry.unregister_collector(self._collect_metrics)
        self.database.catalog.remove_listener(self._listener)
        with self._state_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self.cache.invalidate()
        with self._state_lock:
            self._text_index.clear()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
