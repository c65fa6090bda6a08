"""Query execution over the generated code, and what it shares.

* :mod:`~repro.parallel.executor` — :class:`ParallelExecutor` runs a
  prepared query: a recycled answer, else the plan's generated
  composing function ``run_query``, whose scans go through
  :mod:`~repro.parallel.stage`'s access object;
* :mod:`~repro.parallel.intermediates` — the version-keyed cache of
  statement answers and staged scan outputs;
* :mod:`~repro.parallel.latch` — the readers–writer gate the catalogue
  and the query service take, so concurrent sessions read in parallel
  while DDL and DML run alone.

The package name is historical: one thread runs each plan, and cold
disk pages overlap their waits through the buffer pool's read-ahead
(:class:`~repro.storage.buffer.BufferManager`).

This ``__init__`` stays import-light (the storage layer imports the
latch); the executor is imported lazily on first attribute access.
"""

from repro.parallel.latch import ReadWriteLatch
from repro.parallel.stats import ExecutionStats, PhaseStats

__all__ = [
    "ExecutionStats",
    "ParallelExecutor",
    "PhaseStats",
    "ReadWriteLatch",
]


def __getattr__(name: str):
    # ``executor`` pulls in the core stack; importing it here eagerly
    # would cycle through storage → parallel → core → storage.
    if name == "ParallelExecutor":
        from repro.parallel import executor

        return executor.ParallelExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
