"""repro — a reproduction of "Generating code for holistic query
evaluation" (Krikellas, Viglas & Cintra, ICDE 2010): the HIQUE engine,
its substrates, and the paper's comparison systems.

Quick start::

    from repro import Database, Column, INT, DOUBLE

    db = Database()
    db.create_table("t", [Column("a", INT), Column("b", DOUBLE)])
    db.load_rows("t", [(i, i * 1.5) for i in range(1000)])
    db.analyze()
    print(db.execute("SELECT a, sum(b) AS s FROM t GROUP BY a LIMIT 3"))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro.api import Database, ENGINE_KINDS
from repro.core import HiqueEngine, OPT_O0, OPT_O2
from repro.engines.volcano import VolcanoEngine
from repro.errors import ReproError
from repro.parallel import ExecutionStats, ParallelConfig
from repro.plan.optimizer import PlannerConfig
from repro.service import PlanCache, PreparedStatement, QueryService
from repro.storage import (
    BOOL,
    DATE,
    DOUBLE,
    INT,
    Catalog,
    Column,
    Schema,
    Table,
    char,
    date_to_ordinal,
    ordinal_to_date,
    varchar,
)

__version__ = "1.0.0"


def __getattr__(name: str):
    # The column engine is the only consumer of numpy (16 MB resident):
    # a process that never asks for it should not pay for the import.
    if name == "VectorizedEngine":
        from repro.engines.vectorized import VectorizedEngine

        return VectorizedEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BOOL",
    "Catalog",
    "Column",
    "DATE",
    "DOUBLE",
    "Database",
    "ENGINE_KINDS",
    "ExecutionStats",
    "HiqueEngine",
    "INT",
    "OPT_O0",
    "OPT_O2",
    "ParallelConfig",
    "PlanCache",
    "PlannerConfig",
    "PreparedStatement",
    "QueryService",
    "ReproError",
    "Schema",
    "Table",
    "VectorizedEngine",
    "VolcanoEngine",
    "char",
    "date_to_ordinal",
    "ordinal_to_date",
    "varchar",
]
