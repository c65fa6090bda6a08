"""Client-side handle for one prepared statement shape."""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import ServiceError
from repro.sql import ast
from repro.sql.parameters import ParameterizedQuery
from repro.storage.types import date_to_ordinal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.service import QueryService


@dataclass
class PreparedStatement:
    """One statement shape, prepared once and executable many times.

    Holds everything needed to re-resolve the statement against the
    service's plan cache: if the cached plan was evicted or invalidated
    (DDL, ``analyze``), the next :meth:`execute` transparently pays
    preparation again — callers never observe staleness.  What the
    service derives from the statement on every execution (its plan-
    cache key, its tables) is derived once, here.
    """

    service: "QueryService" = field(repr=False)
    engine_kind: str
    #: The SQL text the statement was prepared from.
    sql: str
    #: Normalized form (literals parameterized away) — the cache key.
    key: str
    parameterized: ParameterizedQuery = field(repr=False)
    #: True for INSERT/UPDATE/DELETE shapes (engine-independent).
    is_dml: bool = field(init=False)
    #: The plan-cache key: the engine kind ("dml" for DML, whose plans
    #: every front-end shares), the normalized SQL and the parameter
    #: type signature.
    cache_key: tuple = field(init=False, repr=False)
    #: Lowercased names of the tables the statement touches.
    tables: tuple[str, ...] = field(init=False, repr=False)
    #: The workload-insights digest the last execution folded into
    #: (see :meth:`repro.obs.insights.DigestStore.fold`).
    digest: Any = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        query = self.parameterized.query
        self.is_dml = not isinstance(query, ast.Query)
        self.cache_key = (
            "dml" if self.is_dml else self.engine_kind,
            self.key,
            self.parameterized.type_signature,
        )
        if self.is_dml:
            self.tables = (query.table.lower(),)
        else:
            self.tables = tuple(sorted({t.name.lower() for t in query.tables}))

    @property
    def num_params(self) -> int:
        """Parameters the statement expects at execute time."""
        return self.parameterized.num_params

    @property
    def default_params(self) -> tuple[Any, ...]:
        """Values extracted by literal parameterization (may be empty)."""
        return self.parameterized.values

    @property
    def output_names(self) -> list[str]:
        """Column names of the statement's result rows."""
        return self.service.statement_output_names(self)

    def resolve_params(
        self,
        params: Sequence[Any] | None,
        allow_override: bool = True,
    ) -> tuple:
        """The effective parameter vector for one execution.

        Explicit-``?`` statements require caller parameters.  A
        statement normalized from literals defaults to its extracted
        constants; through this handle (``allow_override``) a caller
        may rebind them with a vector of the same arity — the whole
        point of preparing the shape.  One-shot ``service.execute``
        passes ``allow_override=False``: there, supplying params for a
        query with no ``?`` placeholders is almost certainly a caller
        bug, not an intent to override inlined constants.
        """
        if params is None:
            defaults = self.parameterized.values
            if self.num_params == 0:
                return defaults
            # The extracted constants only stand in for the caller's
            # vector when they cover *every* parameter.  A statement
            # mixing explicit ``?`` placeholders with parameterized
            # literals would otherwise execute with a short vector —
            # generated code indexing past its end, or binding the
            # wrong value to the wrong slot.
            if defaults and len(defaults) == self.num_params:
                return defaults
            if defaults:
                raise ServiceError(
                    f"statement expects {self.num_params} parameter(s) "
                    f"but literal parameterization extracted only "
                    f"{len(defaults)}; pass the full params=(...) vector"
                )
            raise ServiceError(
                f"statement expects {self.num_params} parameter(s); "
                f"pass params=(...)"
            )
        if self.parameterized.values and not allow_override:
            raise ServiceError(
                "query has no ? placeholders; inline the values or "
                "prepare() the statement to rebind its constants"
            )
        # DATE columns store day ordinals, so a date object can only
        # mean its ordinal — coerce here, as table loading does.
        params = tuple(
            date_to_ordinal(value)
            if isinstance(value, datetime.date)
            else value
            for value in params
        )
        if len(params) != self.num_params:
            raise ServiceError(
                f"statement expects {self.num_params} parameter(s), "
                f"got {len(params)}"
            )
        return params

    # -- execution ---------------------------------------------------------------
    def execute(self, params: Sequence[Any] | None = None) -> list[tuple]:
        """Run the statement with one parameter vector."""
        return self.service.execute_statement(self, params)

    def execute_many(
        self, param_sets: Sequence[Sequence[Any]]
    ) -> list[list[tuple]]:
        """Run the statement once per parameter vector, in order."""
        return [self.execute(params) for params in param_sets]
