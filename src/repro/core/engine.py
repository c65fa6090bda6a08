"""HIQUE — the Holistic Integrated Query Engine (reproduction).

The façade tying the pipeline of Figure 2 together: SQL text → parser →
binder → optimizer → code generator → compiler → executor.  It measures
each preparation stage separately (Table III reports parse, optimize,
generate and compile times plus generated file sizes).

Every :meth:`HiqueEngine.prepare` call runs the whole pipeline.  Reuse
— "it is common for systems to store pre-compiled and pre-optimized
versions of frequently or recently issued queries" — belongs to the
caller: hold the :class:`PreparedQuery`, or go through the query
service, whose plan cache serves ``Database.execute`` and prepared
handles.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, Sequence

from repro.core.compiler import CompiledQuery, QueryCompiler
from repro.core.emitter import OPT_O2
from repro.core.generator import CodeGenerator, GeneratedQuery
from repro.errors import ExecutionError, MapDirectoryOverflow
from repro.memsim.probe import NULL_PROBE, NullProbe
from repro.obs import Observability, default_observability
from repro.parallel.executor import ParallelExecutor
from repro.parallel.stats import ExecutionStats
from repro.plan.descriptors import AGG_HYBRID, PhysicalPlan, ScanStage
from repro.plan.optimizer import Optimizer, PlannerConfig
from repro.sql import ast
from repro.sql.binder import Binder
from repro.sql.bound import BoundQuery, param_dtypes_of
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.storage.types import DataType

#: Identity tokens for prepared queries (see :attr:`PreparedQuery.token`).
_tokens = itertools.count()


@dataclass
class PreparationTimings:
    """Per-stage preparation cost in seconds (Table III)."""

    parse_seconds: float = 0.0
    optimize_seconds: float = 0.0
    generate_seconds: float = 0.0
    compile_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.parse_seconds
            + self.optimize_seconds
            + self.generate_seconds
            + self.compile_seconds
        )


@dataclass
class PreparedQuery:
    """A query after the full preparation pipeline."""

    sql: str
    bound: BoundQuery
    plan: PhysicalPlan
    generated: GeneratedQuery
    compiled: CompiledQuery
    timings: PreparationTimings
    #: Identity of this preparation in the answers it banks: a
    #: monotonic counter, so a re-prepare (another plan, another
    #: optimization level, literals the code reads from the plan)
    #: never reads an answer another preparation computed.
    token: int = field(default_factory=_tokens.__next__)

    @cached_property
    def scanned(self) -> tuple[tuple[str, Table], ...]:
        """``(name, table)`` of every table the plan scans, by name."""
        tables = {
            op.table.name.lower(): op.table
            for op in self.plan.operators
            if isinstance(op, ScanStage)
        }
        return tuple(sorted(tables.items()))

    @property
    def output_names(self) -> list[str]:
        return self.plan.output_names

    @property
    def num_params(self) -> int:
        """How many execute-time parameters the compiled code expects."""
        return self.bound.num_params


class HiqueEngine:
    """The holistic query engine over a catalogue of tables."""

    def __init__(
        self,
        catalog: Catalog,
        planner_config: PlannerConfig | None = None,
        opt_level: str = OPT_O2,
        obs: Observability | None = None,
    ):
        self.catalog = catalog
        self.obs = obs if obs is not None else default_observability()
        self.planner_config = (
            planner_config if planner_config is not None else PlannerConfig()
        )
        self.opt_level = opt_level
        self.binder = Binder(catalog)
        self.generator = CodeGenerator()
        self.compiler = QueryCompiler()
        #: The executor: a recycled answer, else the plan's generated
        #: composing function.
        self.parallel = ParallelExecutor()
        #: How the most recent execution ran (set per execute call).
        self.last_exec_stats: ExecutionStats | None = None

    # -- preparation ----------------------------------------------------------------
    def prepare(
        self,
        sql: str,
        name: str = "query",
        traced: bool = False,
        opt_level: str | None = None,
        planner_config: PlannerConfig | None = None,
        query: ast.Query | None = None,
        param_dtypes: Mapping[int, DataType] | None = None,
    ) -> PreparedQuery:
        """Run the full pipeline, returning a new compiled query (with
        a new :attr:`~PreparedQuery.token`) on every call.

        ``query`` supplies an already-parsed (typically parameterized)
        AST, skipping the parse step — the query service uses this after
        normalizing a statement.  ``param_dtypes`` types the query's
        parameters by index; untyped parameters are inferred from
        context by the binder.
        """
        level = opt_level if opt_level is not None else self.opt_level
        timings = PreparationTimings()
        tracer = self.obs.tracer
        with tracer.span("prepare", "engine", opt_level=level):
            started = time.perf_counter()
            with tracer.span("parse", "prepare"):
                parsed = query if query is not None else parse(sql)
                bound = self.binder.bind(parsed, param_dtypes=param_dtypes)
            timings.parse_seconds = time.perf_counter() - started

            config = (
                planner_config
                if planner_config is not None
                else self.planner_config
            )
            started = time.perf_counter()
            with tracer.span("optimize", "prepare"):
                plan = Optimizer(self.catalog, config).plan(bound)
            timings.optimize_seconds = time.perf_counter() - started

            started = time.perf_counter()
            with tracer.span("generate", "prepare"):
                generated = self.generator.generate(
                    plan, name=name, opt_level=level, traced=traced
                )
            timings.generate_seconds = time.perf_counter() - started

            with tracer.span("compile", "prepare"):
                compiled = self.compiler.compile(generated)
            timings.compile_seconds = compiled.compile_seconds

        return PreparedQuery(
            sql=sql,
            bound=bound,
            plan=plan,
            generated=generated,
            compiled=compiled,
            timings=timings,
        )

    # -- execution ---------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        name: str = "query",
        probe: NullProbe = NULL_PROBE,
        opt_level: str | None = None,
        planner_config: PlannerConfig | None = None,
        params: Sequence[Any] = (),
    ) -> list[tuple]:
        """Prepare and run a query (a new preparation on every call)."""
        prepared = self.prepare(
            sql,
            name=name,
            traced=probe.enabled,
            opt_level=opt_level,
            planner_config=planner_config,
        )
        return self.execute_prepared(prepared, probe=probe, params=params)

    def execute_prepared(
        self,
        prepared: PreparedQuery,
        probe: NullProbe = NULL_PROBE,
        params: Sequence[Any] = (),
    ) -> list[tuple]:
        """Run a prepared query, re-planning on map-directory overflow."""
        params = tuple(params)
        if len(params) != prepared.num_params:
            raise ExecutionError(
                f"query expects {prepared.num_params} parameter(s), "
                f"got {len(params)}"
            )
        try:
            with self.obs.tracer.span(
                "execute",
                "engine",
                engine=(
                    "hique"
                    if prepared.compiled.opt_level == OPT_O2
                    else "hique-o0"
                ),
            ) as span:
                rows, stats = self.parallel.run(
                    prepared, params=params, probe=probe
                )
                self.last_exec_stats = stats
                if span is not None:
                    span.set(
                        rows=len(rows),
                        why=stats.reason or "; ".join(stats.notes),
                    )
                    if stats.recycled:
                        span.set(recycled=stats.recycled)
                return rows
        except MapDirectoryOverflow:
            # Statistics were stale: fall back to hybrid hash-sort
            # aggregation, which needs no capacity estimates.
            fallback_config = dataclasses.replace(
                self.planner_config, force_agg=AGG_HYBRID
            )
            fallback = self.prepare(
                prepared.sql,
                name=prepared.generated.name + "_fallback",
                traced=prepared.compiled.traced,
                opt_level=prepared.compiled.opt_level,
                planner_config=fallback_config,
                param_dtypes=param_dtypes_of(prepared.bound),
            )
            rows, stats = self.parallel.run(
                fallback, params=params, probe=probe
            )
            overflow = (
                "map-directory overflow: re-planned with hybrid aggregation"
            )
            stats.notes.insert(0, overflow)
            stats.reason = "; ".join(filter(None, (overflow, stats.reason)))
            self.last_exec_stats = stats
            return rows

    # -- introspection ------------------------------------------------------------------
    def generate_source(
        self, sql: str, opt_level: str | None = None, traced: bool = False
    ) -> str:
        """The generated Python source for a query (for inspection)."""
        return self.prepare(
            sql, traced=traced, opt_level=opt_level
        ).generated.source

    def explain(self, sql: str) -> str:
        """The physical plan description for a query."""
        bound = self.binder.bind(parse(sql))
        plan = Optimizer(self.catalog, self.planner_config).plan(bound)
        return plan.explain()

    # -- lifecycle ---------------------------------------------------------------------
    def close(self) -> None:
        """Nothing to release: the engine keeps no preparations."""

    def __enter__(self) -> "HiqueEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
