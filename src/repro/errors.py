"""Exception hierarchy for the repro (HIQUE reproduction) library.

All library errors derive from :class:`ReproError` so that callers can
catch a single base class.  Each subsystem raises its own subclass, which
keeps error handling explicit at the public API boundary (the SQL engine
reports :class:`SqlError` subclasses to clients, storage corruption
surfaces as :class:`StorageError`, and so on).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class StorageError(ReproError):
    """Raised for storage-layer failures (page overflow, bad files...)."""


class PageFullError(StorageError):
    """Raised when a tuple does not fit into a page."""


class BufferPoolError(StorageError):
    """Raised when the buffer pool cannot satisfy a request.

    The common cause is every frame being pinned while a new page is
    requested.
    """


class CatalogError(ReproError):
    """Raised for catalog inconsistencies (unknown/duplicate tables...)."""


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class LexerError(SqlError):
    """Raised when the lexer meets an unexpected character."""


class ParseError(SqlError):
    """Raised when the parser meets an unexpected token."""


class BindError(SqlError):
    """Raised when names or types cannot be resolved against the catalog."""


class ConstraintError(SqlError):
    """Raised when a DML statement violates a structural constraint.

    Covers arity mismatches (INSERT with the wrong number of values),
    values that do not fit the target column type, and strings wider
    than a CHAR column.  Typed separately from :class:`BindError` so the
    server can report it as a ``bad_request`` instead of dropping the
    connection.
    """


class UnsupportedSqlError(SqlError):
    """Raised for syntactically valid SQL outside the supported subset.

    The paper's grammar supports conjunctive queries with equi-joins,
    arbitrary groupings and sort orders; it excludes nested queries and
    statistical aggregate functions.  We mirror those limits.
    """


class PlanError(ReproError):
    """Raised when the optimizer cannot produce a valid physical plan."""


class CodegenError(ReproError):
    """Raised when template instantiation or compilation fails."""


class ExecutionError(ReproError):
    """Raised when a compiled query fails at run time."""


class ServiceError(ReproError):
    """Raised by the query service layer (sessions, prepared statements)."""


class AdmissionError(ServiceError):
    """Raised when the service's bounded session pool is saturated and a
    new request cannot be admitted."""


class QueryTimeout(ServiceError):
    """Raised when a query exceeds the server's per-query deadline.

    The server reports it as a typed ``timeout`` response instead of
    dropping the connection.
    """


class ServerError(ReproError):
    """Raised by the TCP query-server front-end (framing, lifecycle)."""


class ProtocolError(ServerError):
    """Raised for a malformed protocol frame (bad JSON, missing op...)."""


class MapDirectoryOverflow(ExecutionError):
    """Raised by generated map-aggregation code when a value directory
    outgrows its planned capacity (stale statistics).

    The executor catches this and transparently re-plans the query with
    hybrid hash-sort aggregation forced.
    """

