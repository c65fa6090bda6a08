"""The TCP serving layer: an asyncio front-end over the query service.

The repo's first externally reachable surface.  A
:class:`QueryServer` multiplexes many client connections over one
:class:`~repro.service.QueryService` — per-connection prepared
statements, admission backpressure as typed ``over_capacity``
responses, per-query deadlines, and a
drain-style graceful shutdown.  See :mod:`repro.server.protocol` for
the newline-delimited JSON wire format and
:mod:`repro.server.client` for the async/blocking clients.
"""

from repro.server.client import (
    AsyncQueryClient,
    QueryClient,
    RemoteStatement,
)
from repro.server.server import (
    QueryServer,
    ServerHandle,
    ServerStats,
    serve_in_thread,
)

__all__ = [
    "AsyncQueryClient",
    "QueryClient",
    "QueryServer",
    "RemoteStatement",
    "ServerHandle",
    "ServerStats",
    "serve_in_thread",
]
