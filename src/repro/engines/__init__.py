"""Query evaluation engines: the paper's comparison points.

* :mod:`repro.engines.volcano` — iterator engine (generic / optimized /
  buffered configurations).
* :mod:`repro.engines.hardcoded` — hand-written plans for the profiling
  microbenchmarks.
* :mod:`repro.engines.vectorized` — DSM column engine (MonetDB analog).

The paper's own contribution lives in :mod:`repro.core`.
"""

from repro.engines.volcano import VolcanoEngine

__all__ = ["VectorizedEngine", "VolcanoEngine"]


def __getattr__(name: str):
    # Imported on first use: it pulls in numpy (see repro/__init__.py).
    if name == "VectorizedEngine":
        from repro.engines.vectorized import VectorizedEngine

        return VectorizedEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
