"""Interactive SQL shell over the holistic engine.

Run with ``python -m repro`` (or the ``repro`` console script).  Plain
SQL goes through the query service, so repeated statement shapes reuse
cached compiled plans; statements may use ``?`` placeholders when
executed through ``.prepare`` / ``.exec``.  Meta-commands:

* ``.help`` — list commands
* ``.tables`` — list catalogued tables with row counts
* ``.engine <kind>`` — switch engine (hique, hique-o0, volcano,
  volcano-generic, systemx, vectorized)
* ``.explain <sql>`` — show the physical plan; ``.explain analyze
  <sql>`` (or plain ``EXPLAIN ANALYZE <sql>``) executes with tracing
  forced on and annotates each operator with measured time, rows,
  morsel tasks, queue wait and worker pids
* ``.source <sql>`` — show the generated Python module
* ``.prepare <sql>`` — prepare a statement (literals are parameterized
  away; ``?`` placeholders allowed) and report preparation timings
* ``.exec [v1, v2, ...]`` — run the last prepared statement with the
  given parameter values (int, float or 'string')
* ``.cache [clear]`` — show (or reset) plan-cache and service stats;
  each entry lists the ``table~rows`` counts it was optimized against
  (plans survive DML and are re-optimized once a count drifts 2×)
* ``.index <table> <column>`` — build a B+-tree index; scans with a
  sargable filter on the column probe it (``.explain`` shows
  ``via index(...)``) and indexed UPDATE/DELETE patch it in place
* ``.versions`` — per-table mutation epochs (bumped by every INSERT /
  UPDATE / DELETE / load; version-keyed caches use them for coherence)
* ``.workers <n>`` — set the worker count of scheduled runs (``1``
  pins every run to the serial walk)
* ``.executor [thread|process|auto]`` — pick the task backend of
  scheduled runs: ``thread`` overlaps page waits in-process,
  ``process`` ships O2 tasks to worker processes, ``auto`` routes each
  batch through the adaptive cost model; with no argument, show it
* ``.parallel`` — show the configuration and the last execution's
  per-phase (stage/join/aggregate/final) breakdown
* ``.pipeline [on|off]`` — toggle dependency-driven (pipelined)
  scheduling of scheduled runs; with no argument, show the mode
* ``.tpch [sf]`` — load a TPC-H instance (default scale factor 0.002)
* ``.timing on|off`` — toggle per-query timing
* ``.trace [on|off|save <path>]`` — toggle span tracing for every
  query (``REPRO_TRACE=1`` turns it on at startup); ``save`` writes
  the last query's span tree as Chrome ``trace_event`` JSON, loadable
  in Perfetto or chrome://tracing; with no argument, show the state
  and a span summary of the last trace
* ``.metrics`` — dump all counters, gauges and latency histograms in
  Prometheus text format
* ``.insights [n|reset]`` — workload insights: the top-n statement
  digests (calls, errors, watchdog timeouts, mean/p95 latency, rows,
  plan-cache hit rate, backend), the slow-query log summary and the
  cross-query operator profile folded from recorded traces; ``reset``
  clears all three
* ``.slow [n|clear]`` — the n slowest queries over the
  ``REPRO_SLOW_MS`` threshold (default 100 ms), with span counts when
  tracing captured their trees; ``clear`` empties the log
* ``.serve [[host:]port | stop]`` — serve this database over TCP
  (newline-delimited JSON, see ``repro.server``) on a background
  thread: per-connection prepared statements, typed ``over_capacity``
  backpressure, graceful drain on ``stop``; with no argument, show
  the address and connection/query counters
* ``.quit`` — exit
"""

from __future__ import annotations

import sys
import time

from repro.api import Database, ENGINE_KINDS
from repro.errors import ReproError
from repro.parallel.stats import EXECUTOR_KINDS
from repro.service import PreparedStatement

_PROMPT = "hique> "


class Shell:
    """A minimal REPL; one instance per session."""

    def __init__(self, stdout=None):
        self.db = Database()
        self.engine_kind = "hique"
        self.timing = True
        self.stdout = stdout if stdout is not None else sys.stdout
        self.last_statement: PreparedStatement | None = None
        self.server_handle = None

    # -- output ------------------------------------------------------------------
    def write(self, text: str = "") -> None:
        print(text, file=self.stdout)

    def write_rows(self, names: list[str], rows: list[tuple]) -> None:
        if not rows:
            self.write("(no rows)")
            return
        widths = [len(n) for n in names]
        rendered = [
            [_format_cell(v) for v in row] for row in rows[:50]
        ]
        for row in rendered:
            for i, cell in enumerate(row):
                if i < len(widths):
                    widths[i] = max(widths[i], len(cell))
        self.write(
            "  ".join(n.ljust(widths[i]) for i, n in enumerate(names))
        )
        self.write("  ".join("-" * w for w in widths))
        for row in rendered:
            self.write(
                "  ".join(cell.ljust(widths[i])
                          for i, cell in enumerate(row))
            )
        if len(rows) > 50:
            self.write(f"... {len(rows) - 50} more rows")
        self.write(f"({len(rows)} rows)")

    # -- command dispatch -----------------------------------------------------------
    def handle(self, line: str) -> bool:
        """Process one input line; returns False to exit."""
        line = line.strip()
        if not line:
            return True
        if line.startswith("."):
            return self._meta(line)
        self._run_sql(line)
        return True

    def _meta(self, line: str) -> bool:
        command, _, argument = line.partition(" ")
        argument = argument.strip()
        if command in (".quit", ".exit"):
            return False
        if command == ".help":
            self.write(__doc__ or "")
        elif command == ".tables":
            for table in self.db.catalog.tables():
                self.write(
                    f"{table.name:20s} {table.num_rows:>10,} rows  "
                    f"{table.num_pages:>6,} pages"
                )
        elif command == ".engine":
            if argument not in ENGINE_KINDS:
                self.write(f"engines: {', '.join(ENGINE_KINDS)}")
            else:
                self.engine_kind = argument
                self.write(f"engine set to {argument}")
        elif command == ".explain":
            try:
                first, _, rest = argument.partition(" ")
                if first.lower() == "analyze" and rest.strip():
                    self.write(
                        self.db.explain_analyze(
                            rest.strip(), engine=self.engine_kind
                        )
                    )
                else:
                    self.write(self.db.explain(argument))
            except ReproError as exc:
                self.write(f"error: {exc}")
        elif command == ".source":
            try:
                self.write(self.db.generated_source(argument))
            except ReproError as exc:
                self.write(f"error: {exc}")
        elif command == ".prepare":
            self._prepare(argument)
        elif command == ".exec":
            self._exec(argument)
        elif command == ".cache":
            self._cache(argument)
        elif command == ".index":
            try:
                table, column = argument.split()
            except ValueError:
                self.write("usage: .index <table> <column>")
                return True
            try:
                index = self.db.create_index(table, column)
            except ReproError as exc:
                self.write(f"error: {exc}")
            else:
                self.write(
                    f"index on {table}({column}): {len(index):,} entries, "
                    f"height {index.height}"
                )
        elif command == ".versions":
            versions = self.db.catalog.versions()
            if not versions:
                self.write("(no tables)")
            for name in sorted(versions):
                self.write(f"{name:20s} version {versions[name]}")
        elif command == ".serve":
            self._serve(argument)
        elif command == ".workers":
            try:
                config = self.db.set_parallel(workers=int(argument))
            except (ValueError, ReproError):
                self.write("usage: .workers <positive integer>")
            else:
                self.write(f"morsel workers set to {config.workers}")
        elif command == ".executor":
            if argument in EXECUTOR_KINDS:
                config = self.db.set_parallel(executor=argument)
                self.write(f"task backend set to {config.executor}")
            elif argument == "":
                self.write(
                    f"task backend: {self.db.parallel_config.executor} "
                    f"(.executor {'|'.join(EXECUTOR_KINDS)} to switch)"
                )
            else:
                self.write(
                    f"usage: .executor [{'|'.join(EXECUTOR_KINDS)}]"
                )
        elif command == ".parallel":
            if argument:
                self.write("usage: .parallel")
                return True
            config = self.db.parallel_config
            self.write(
                f"{config.workers} workers, {config.morsel_pages} "
                f"pages/morsel, {config.executor} backend, "
                f"{'pipelined' if config.pipeline else 'barrier'} "
                f"scheduling, min_pages {config.min_pages}, "
                f"min_rows {config.min_rows}"
            )
            stats = self.db.last_exec_stats(self.engine_kind)
            if stats is not None:
                self.write(f"last execution: {stats.describe()}")
                for note in stats.notes:
                    self.write(f"  serial: {note}")
        elif command == ".pipeline":
            if argument in ("on", "off"):
                config = self.db.set_parallel(pipeline=argument == "on")
                self.write(
                    f"pipelined scheduling "
                    f"{'on' if config.pipeline else 'off'} "
                    f"({config.workers} workers, {config.executor} backend)"
                )
            elif argument == "":
                config = self.db.parallel_config
                self.write(
                    f"scheduling: "
                    f"{'pipelined' if config.pipeline else 'barrier'} "
                    f"(.pipeline on|off to switch)"
                )
            else:
                self.write("usage: .pipeline [on|off]")
        elif command == ".tpch":
            scale = float(argument) if argument else 0.002
            from repro.bench.tpch import generate_tpch

            started = time.perf_counter()
            generate_tpch(self.db.catalog, scale_factor=scale)
            elapsed = time.perf_counter() - started
            rows = self.db.table("lineitem").num_rows
            self.write(
                f"TPC-H @ SF {scale} loaded in {elapsed:.2f}s "
                f"(lineitem: {rows:,} rows)"
            )
        elif command == ".timing":
            self.timing = argument != "off"
            self.write(f"timing {'on' if self.timing else 'off'}")
        elif command == ".trace":
            self._trace(argument)
        elif command == ".metrics":
            self.write(self.db.metrics_text())
        elif command == ".insights":
            self._insights(argument)
        elif command == ".slow":
            self._slow(argument)
        else:
            self.write(f"unknown command {command}; try .help")
        return True

    # -- prepared statements ---------------------------------------------------------
    def _prepare(self, sql: str) -> None:
        if not sql:
            self.write("usage: .prepare <sql>")
            return
        try:
            started = time.perf_counter()
            statement = self.db.prepare(sql, engine=self.engine_kind)
            elapsed = time.perf_counter() - started
        except ReproError as exc:
            self.write(f"error: {exc}")
            return
        self.last_statement = statement
        self.write(f"prepared: {statement.key}")
        self.write(
            f"{statement.num_params} parameter(s); prepared in "
            f"{elapsed * 1000:.2f} ms — run with .exec v1, v2, ..."
        )

    def _exec(self, argument: str) -> None:
        if self.last_statement is None:
            self.write("no prepared statement; use .prepare <sql> first")
            return
        try:
            params = _parse_params(argument) if argument else None
            started = time.perf_counter()
            rows = self.last_statement.execute(params)
            elapsed = time.perf_counter() - started
        except (ReproError, ValueError) as exc:
            self.write(f"error: {exc}")
            return
        self.write_rows(self._statement_names(self.last_statement), rows)
        if self.timing:
            self.write(f"[{self.last_statement.engine_kind}] "
                       f"{elapsed * 1000:.2f} ms"
                       f"{self._exec_suffix(self.last_statement.engine_kind)}")

    def _cache(self, argument: str) -> None:
        service = self.db.service
        if argument == "clear":
            service.cache.invalidate()
            self.write("plan cache cleared")
            return
        stats = service.stats()
        cache = stats.cache
        self.write(
            f"plan cache: {cache.size}/{cache.capacity} entries, "
            f"{cache.hits} hits, {cache.misses} misses, "
            f"{cache.evictions} evictions, {cache.invalidations} "
            f"invalidations ({cache.hit_rate * 100:.0f}% hit rate)"
        )
        self.write(f"admission policy: {cache.policy}")
        self.write(
            f"preparation saved: {cache.seconds_saved * 1000:.2f} ms; "
            f"service: {stats.queries} queries, {stats.text_hits} "
            f"text hits, {stats.completed} pooled, {stats.rejected} "
            f"rejected"
        )
        parallel_runs, serial_runs = self.db.parallel_counters()
        self.write(
            f"engine executions: {parallel_runs} parallel, "
            f"{serial_runs} serial ({stats.executor} backend)"
        )
        inter = self.db.intermediates.stats()
        self.write(
            f"intermediate cache: {inter.entries} entries, "
            f"{inter.bytes:,} / {inter.capacity_bytes:,} B, "
            f"{inter.hits} hits, {inter.misses} misses, "
            f"{inter.evictions} evictions "
            f"({inter.hit_rate * 100:.0f}% hit rate); admission: "
            f"{inter.sightings} first sightings, {inter.admitted} "
            f"admitted, {inter.sighting_evictions} sightings aged out"
        )
        for entry in reversed(service.cache.entries()):
            kind, key, _signature = entry.key
            deps = ", ".join(
                f"{table}~{rows:,} rows" for table, rows in entry.deps
            )
            self.write(
                f"  [{entry.hits:>4} hits, {entry.seconds_saved * 1000:8.2f}"
                f" ms saved, {entry.size_bytes:>7} B] ({kind}) {key}"
                + (f"  deps: {deps}" if deps else "")
            )

    def _serve(self, argument: str) -> None:
        if argument == "stop":
            if self.server_handle is None:
                self.write("no server running")
                return
            self.server_handle.stop()
            stats = self.server_handle.stats()
            self.server_handle = None
            self.write(
                f"server drained and stopped "
                f"({stats.queries_ok} queries served, "
                f"{stats.connections_total} connections)"
            )
            return
        if not argument:
            if self.server_handle is None:
                self.write(
                    "no server running (.serve [host:]port to start)"
                )
            else:
                host, port = self.server_handle.address
                stats = self.server_handle.stats()
                self.write(
                    f"serving on {host}:{port} — "
                    f"{stats.connections_active} active / "
                    f"{stats.connections_total} total connections, "
                    f"{stats.queries_ok} ok, {stats.errors} errors "
                    f"({stats.over_capacity} over capacity, "
                    f"{stats.timeouts} timeouts)"
                )
            return
        if self.server_handle is not None:
            self.write(
                "a server is already running (.serve stop first)"
            )
            return
        host, _, port_text = argument.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            self.write("usage: .serve [[host:]port | stop]")
            return
        try:
            self.server_handle = self.db.serve(host=host, port=port)
        except OSError as exc:
            self.write(f"error: {exc}")
            return
        bound_host, bound_port = self.server_handle.address
        self.write(
            f"serving on {bound_host}:{bound_port} "
            f"(newline-delimited JSON; .serve stop to drain)"
        )

    def close(self) -> None:
        """Release the shell's resources (server first, then the db)."""
        if self.server_handle is not None:
            self.server_handle.stop()
            self.server_handle = None
        self.db.close()

    def _trace(self, argument: str) -> None:
        if argument == "on":
            self.db.set_trace(True)
            self.write("tracing on")
        elif argument == "off":
            self.db.set_trace(False)
            self.write("tracing off")
        elif argument.startswith("save"):
            trace = self.db.last_trace()
            if trace is None:
                self.write("no trace recorded; .trace on and run a query")
                return
            path = argument[len("save"):].strip() or "trace.json"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(trace.to_chrome_trace())
            self.write(
                f"wrote {path} (open in Perfetto or chrome://tracing)"
            )
        elif argument == "":
            state = "on" if self.db.trace_enabled else "off"
            self.write(f"tracing {state}")
            trace = self.db.last_trace()
            if trace is not None:
                spans = sum(1 for _ in trace.root.walk())
                self.write(
                    f"last trace: {trace.root.name}, {spans} spans, "
                    f"{trace.root.duration * 1000:.2f} ms "
                    f"(.trace save <path> to export)"
                )
        else:
            self.write("usage: .trace [on|off|save <path>]")

    def _insights(self, argument: str) -> None:
        if argument == "reset":
            self.db.insights().reset()
            self.write("workload insights reset")
            return
        top = 10
        if argument:
            try:
                top = max(1, int(argument))
            except ValueError:
                self.write("usage: .insights [n|reset]")
                return
        self.write(self.db.insights_text(top=top))

    def _slow(self, argument: str) -> None:
        log = self.db.insights().slow
        if argument == "clear":
            log.clear()
            self.write("slow-query log cleared")
            return
        limit = 10
        if argument:
            try:
                limit = max(1, int(argument))
            except ValueError:
                self.write("usage: .slow [n|clear]")
                return
        self.write(log.render_text(limit=limit))

    def _run_sql(self, sql: str) -> None:
        head = sql.split(None, 2)
        if len(head) == 3 and [w.upper() for w in head[:2]] == [
            "EXPLAIN",
            "ANALYZE",
        ]:
            try:
                self.write(
                    self.db.explain_analyze(head[2], engine=self.engine_kind)
                )
            except ReproError as exc:
                self.write(f"error: {exc}")
            return
        try:
            started = time.perf_counter()
            statement = self.db.prepare(sql, engine=self.engine_kind)
            rows = statement.execute()
            elapsed = time.perf_counter() - started
        except ReproError as exc:
            self.write(f"error: {exc}")
            return
        self.write_rows(self._statement_names(statement), rows)
        if self.timing:
            self.write(
                f"[{statement.engine_kind}] {elapsed * 1000:.2f} ms"
                f"{self._exec_suffix(statement.engine_kind)}"
            )

    def _exec_suffix(self, engine_kind: str) -> str:
        """Timing-line annotation: how that engine actually executed."""
        stats = self.db.last_exec_stats(engine_kind)
        if stats is None or not stats.parallel:
            return ""
        return f" ({stats.describe()})"

    def _statement_names(self, statement: PreparedStatement) -> list[str]:
        try:
            return statement.output_names
        except ReproError:
            return []


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _parse_params(text: str) -> tuple:
    """Parse ``.exec`` arguments: comma-separated ints, floats, 'strings'."""
    values = []
    for part in _split_params(text):
        part = part.strip()
        if not part:
            raise ValueError("empty parameter value")
        if part.startswith("'") and part.endswith("'") and len(part) >= 2:
            values.append(part[1:-1].replace("''", "'"))
            continue
        try:
            values.append(int(part))
        except ValueError:
            try:
                values.append(float(part))
            except ValueError:
                raise ValueError(
                    f"cannot parse parameter {part!r} (use an int, a "
                    f"float or a 'quoted string')"
                ) from None
    return tuple(values)


def _split_params(text: str) -> list[str]:
    """Split on commas that are not inside single-quoted strings."""
    parts: list[str] = []
    current: list[str] = []
    in_string = False
    for ch in text:
        if ch == "'":
            in_string = not in_string
            current.append(ch)
        elif ch == "," and not in_string:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def main(argv: list[str] | None = None) -> int:
    """Entry point: optional args are SQL files to execute first."""
    shell = Shell()
    print("HIQUE reproduction shell — .help for commands, .quit to exit")
    for path in (argv or []):
        with open(path, encoding="utf-8") as handle:
            for statement in handle.read().split(";"):
                if statement.strip():
                    shell.handle(statement)
    try:
        while True:
            try:
                line = input(_PROMPT)
            except EOFError:
                break
            if not shell.handle(line):
                break
    except KeyboardInterrupt:
        pass
    finally:
        shell.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))
