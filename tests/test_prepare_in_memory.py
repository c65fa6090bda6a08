"""Preparation in memory: no run writes a file, and the scheduler's
entry points are compiled only when a run is scheduled.

The compiler ``compile()``s and ``exec``s the serial module under a
path that names no file; the namespace's ``__loader__`` serves the
source to ``linecache``.  ``CompiledQuery.link_scheduled`` compiles the
``*_partial`` / ``*_pair`` / ``*_chunk`` entry points into the same
namespace on the first scheduled run.
"""

from __future__ import annotations

import inspect
import marshal
import os
import subprocess
import sys
import tempfile
import textwrap
import threading
import traceback

import pytest

import repro.core.compiler as compiler_module
from repro import Column, Database, INT
from repro.core.engine import HiqueEngine
from repro.parallel.stats import ParallelConfig
from repro.plan.optimizer import PlannerConfig
from repro.storage import Catalog, Schema

SERIAL = ParallelConfig(workers=1)
THREADS = ParallelConfig(workers=2, morsel_pages=2, min_pages=1, min_rows=8)

MAP_AGG = (
    "SELECT k, sum(v) AS sv, count(*) AS n, min(v) AS mn, max(v) AS mx "
    "FROM fact GROUP BY k"
)
GLOBAL_AGG = (
    "SELECT sum(v) AS sv, count(*) AS n, max(k) AS mk FROM fact "
    "WHERE v < 700"
)
JOIN = "SELECT f.id, f.v, m.w FROM fact f, dim m WHERE f.k = m.k"

#: name → (sql, planner config, the scheduler-only entry point it uses).
CASES = {
    "map-aggregate": (MAP_AGG, PlannerConfig(force_agg="map"), "_partial"),
    "global-aggregate": (GLOBAL_AGG, PlannerConfig(), "_partial"),
    "merge-join": (JOIN, PlannerConfig(force_join="merge"), "_pair"),
    "hybrid-join": (
        JOIN, PlannerConfig(force_join="hybrid", force_partitions=4), "_pair"
    ),
}


@pytest.fixture()
def catalog() -> Catalog:
    catalog = Catalog()
    fact = catalog.create_table(
        "fact", Schema([Column("id", INT), Column("k", INT), Column("v", INT)])
    )
    fact.load_rows((i, i % 37, (i * 7919) % 1000) for i in range(2400))
    dim = catalog.create_table(
        "dim", Schema([Column("k", INT), Column("w", INT)])
    )
    dim.load_rows((k, k * 10) for k in range(30))
    catalog.analyze()
    return catalog


def _entry_name(prepared, suffix: str) -> str:
    return next(
        name + suffix
        for name in prepared.generated.function_names.values()
        if name + suffix in prepared.generated.scheduled_source
    )


# -- no file on the prepare path ------------------------------------------------------


def test_distinct_statements_write_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    db = Database()
    db.create_table("t", [Column("a", INT), Column("k", INT)])
    db.load_rows("t", [(i, i % 5) for i in range(50)])
    db.analyze()
    try:
        compiler = db.engine("hique").compiler
        before = compiler._counter
        for i in range(500):
            # A distinct output name is a distinct plan-cache key.
            db.execute(f"SELECT k, sum(a) AS s{i} FROM t GROUP BY k")
        assert compiler._counter - before == 500
        assert os.listdir(tmp_path) == []
    finally:
        db.close()


def test_a_query_loads_no_process_machinery(tmp_path):
    """Threads are the only task backend: importing the package and
    preparing and running a query pulls in neither ``multiprocessing``
    nor the process-pool executor, and creates no work directory."""
    script = textwrap.dedent(
        """
        import sys
        import repro
        from repro import Column, Database, INT

        db = Database()
        db.create_table("t", [Column("a", INT), Column("k", INT)])
        db.load_rows("t", [(i, i % 5) for i in range(50)])
        db.analyze()
        statement = db.prepare("SELECT k, sum(a) AS s FROM t WHERE a < ? GROUP BY k")
        assert db.service.execute_statement(statement, (40,))
        db.close()
        loaded = [
            name for name in ("multiprocessing", "concurrent.futures.process")
            if name in sys.modules
        ]
        print(",".join(loaded))
        """
    )
    env = dict(
        os.environ,
        TMPDIR=str(tmp_path),
        PYTHONPATH=os.pathsep.join(path for path in sys.path if path),
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
    assert not [
        name for name in os.listdir(tmp_path) if name.startswith("hique_gen")
    ]


def test_compiled_bytes_is_the_marshalled_serial_code(catalog):
    engine = HiqueEngine(catalog, parallel=SERIAL)
    try:
        compiled = engine.prepare(MAP_AGG).compiled
        assert compiled.compiled_bytes == len(marshal.dumps(compiled.code))
        assert compiled.source_bytes == len(compiled.source.encode())
    finally:
        engine.close()


def test_a_generated_frame_shows_its_line_without_a_file(catalog):
    engine = HiqueEngine(catalog, parallel=SERIAL)
    try:
        prepared = engine.prepare(MAP_AGG)
        compiled = prepared.compiled
        scan = compiled.namespace[
            next(
                name
                for name in prepared.generated.function_names.values()
                if name.startswith("stage_")
            )
        ]
        with pytest.raises(AttributeError) as raised:
            scan(None)  # no context: fails inside the generated body
        frame = traceback.extract_tb(raised.value.__traceback__)[-1]
        assert frame.filename == compiled.source_path
        assert not os.path.exists(compiled.source_path)
        lines = compiled.source.splitlines()
        assert frame.line == lines[frame.lineno - 1].strip() != ""
        assert inspect.getsource(scan).startswith(f"def {frame.name}(")

        # The scheduled entry points number their lines after the
        # serial module's, as in the text the ``__loader__`` serves.
        compiled.link_scheduled()
        partial = _entry_name(prepared, "_partial")
        assert inspect.getsource(compiled.namespace[partial]).startswith(
            f"def {partial}(ctx, rows):"
        )
        assert not os.path.exists(compiled.source_path)
    finally:
        engine.close()


# -- scheduled entry points: compiled on the first scheduled run ---------------------


@pytest.mark.usefixtures("scheduled")
@pytest.mark.parametrize("opt_level", ["O2", "O0"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_scheduled_runs_return_the_serial_walks_rows(catalog, case, opt_level):
    sql, config, suffix = CASES[case]
    serial = HiqueEngine(
        catalog, opt_level=opt_level, planner_config=config, parallel=SERIAL
    )
    engine = HiqueEngine(
        catalog,
        opt_level=opt_level,
        planner_config=config,
        parallel=THREADS,
    )
    try:
        expected = serial.execute(sql)
        prepared = engine.prepare(sql)
        entry = _entry_name(prepared, suffix)
        assert entry not in prepared.compiled.namespace
        assert f"def {entry}(" not in prepared.generated.source
        rows = engine.execute_prepared(prepared)
        assert repr(rows) == repr(expected)
        stats = engine.last_exec_stats
        assert stats.scheduled and stats.parallel, stats
        assert entry in prepared.compiled.namespace
        assert not os.path.exists(prepared.compiled.source_path)
    finally:
        serial.close()
        engine.close()


@pytest.mark.usefixtures("scheduled")
def test_concurrent_first_runs_compile_the_scheduled_module_once(
    catalog, monkeypatch
):
    sql, config, _ = CASES["map-aggregate"]
    serial = HiqueEngine(catalog, planner_config=config, parallel=SERIAL)
    engine = HiqueEngine(catalog, planner_config=config, parallel=THREADS)
    compiled_files = []
    real_compile = compile

    def counting_compile(source, filename, *args, **kwargs):
        compiled_files.append(filename)
        return real_compile(source, filename, *args, **kwargs)

    interval = sys.getswitchinterval()
    try:
        expected = repr(serial.execute(sql))
        prepared = engine.prepare(sql)
        monkeypatch.setattr(
            compiler_module, "compile", counting_compile, raising=False
        )
        barrier = threading.Barrier(8)
        results = [None] * 8

        def run(i: int) -> None:
            barrier.wait(timeout=30)
            results[i] = repr(engine.execute_prepared(prepared))

        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 8
        assert compiled_files == [prepared.compiled.source_path]
        assert not os.path.exists(prepared.compiled.source_path)
    finally:
        sys.setswitchinterval(interval)
        serial.close()
        engine.close()
