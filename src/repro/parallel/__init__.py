"""The parallel execution subsystem.

Three layers turn the single-threaded reproduction into a concurrent
engine:

* **thread-safe storage** — the buffer manager latches its frame table
  (pool-level lock for lookup/eviction, per-frame pin counts so pinned
  pages are never evicted under a reader), page files use positioned
  reads, and the catalogue gates DDL behind a
  :class:`~repro.parallel.latch.ReadWriteLatch`;
* **morsel-driven intra-query parallelism** — a
  :class:`~repro.parallel.morsel.MorselDispatcher` slices table scans
  into page-range morsels and the
  :class:`~repro.parallel.executor.ParallelExecutor` runs generated
  scan/partial-aggregation code per morsel with thread-local state,
  merging partials order-preservingly;
* **a concurrent service** — the query service admits concurrent
  readers through the catalogue's read gate instead of a global
  execution lock (see :mod:`repro.service.service`).

This ``__init__`` stays import-light (the storage layer imports the
latch); the executor is imported lazily on first attribute access.
"""

from repro.parallel.latch import ReadWriteLatch
from repro.parallel.merge import (
    Desc,
    chunk_bounds,
    kway_merge,
    merge_ordered_runs,
    merge_sorted_runs,
)
from repro.parallel.morsel import (
    DEFAULT_MORSEL_PAGES,
    AffinityDispatcher,
    Morsel,
    MorselDispatcher,
    TaskDispatcher,
    morsels_for,
)
from repro.parallel.stats import (
    ExecutionStats,
    ParallelConfig,
    PhaseStats,
)

__all__ = [
    "AffinityDispatcher",
    "DEFAULT_MORSEL_PAGES",
    "Desc",
    "ExecutionStats",
    "Morsel",
    "MorselDispatcher",
    "ParallelConfig",
    "ParallelExecutor",
    "PhaseStats",
    "ReadWriteLatch",
    "TaskDispatcher",
    "ThreadBackend",
    "chunk_bounds",
    "kway_merge",
    "merge_aggregate_partials",
    "merge_ordered_runs",
    "merge_sorted_runs",
    "morsels_for",
]


def __getattr__(name: str):
    # ``executor``/``backend`` pull in the core/errors stack;
    # importing them here eagerly would cycle through storage →
    # parallel → core → storage.
    if name in ("ParallelExecutor", "merge_aggregate_partials"):
        from repro.parallel import executor

        return getattr(executor, name)
    if name == "ThreadBackend":
        from repro.parallel import backend

        return backend.ThreadBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
