"""``python -m benchmarks.e2e``: the whole suite, for people.

Runs every workload in a fresh subprocess, untraced and then traced
over the same seeded stream, with the timed phase a fixed operation
count (so counts repeat); prints every metric by name and unit, the
tracing overhead, and whether the workloads still separate the layers
as designed.  ``--aa N`` repeats the suite N times on the same code —
the untraced pass as ``BENCHMARK.json``'s command runs it — and judges
the run-to-run spread of every end-to-end metric against its bound.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from benchmarks.e2e import (
    DEFAULT_SEED, HELD_OUT_SEED, RESULTS, WORKLOADS, load_spec,
    require_program,
)
from benchmarks.e2e.measure import spread

HERE = Path(__file__).resolve().parent


def run_one(
    workload: str,
    seed: int,
    scale: str,
    trace: bool,
    seconds: float | None = None,
) -> dict:
    """One pass in a fresh interpreter (spawned, so nothing of this
    process or an earlier pass is inherited), then its report."""
    from benchmarks.e2e import runner

    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as pool:
        result = pool.submit(
            runner.run, workload, seed, scale, seconds, trace
        ).result()
    runner.report(result)
    return result


def value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def run_suite(
    workloads: list[str], seed: int, scale: str, passes: tuple[bool, ...]
) -> dict[str, dict[bool, dict]]:
    results: dict[str, dict[bool, dict]] = {}
    for workload in workloads:
        results[workload] = {
            trace: run_one(workload, seed, scale, trace) for trace in passes
        }
        both = results[workload]
        if len(both) == 2:
            ratio = value(both[True], "traced_ops_per_s") / value(
                both[False], "ops_per_s"
            )
            print(f"  {'trace_overhead_ratio':40s} {ratio:14.6g} ratio"
                  "  (traced ops_per_s / untraced ops_per_s)")
    return results


def preparation_share(traced: dict) -> float:
    """Parse + parameterize + prepare (which encloses bind, optimize,
    generate, compile) over the traced timed phase."""
    spent = sum(
        value(traced, name)
        for name in ("sql.parse_s", "sql.parameterize_s", "core.prepare_s")
    )
    return spent / traced["detail"]["timed_seconds"]


def _in(low: float, high: float):
    return lambda observed: low <= observed <= high


#: The design conditions: (workload or None for all, what is observed,
#: how to read it off a traced result, whether it holds).
CONDITIONS = (
    ("adhoc_analytic", "plan-cache hit ratio >= 0.95",
     lambda r: value(r, "service.plan_cache.hit_ratio"), _in(0.95, 1.0)),
    ("shape_churn", "plan-cache hit ratio <= 0.05",
     lambda r: value(r, "service.plan_cache.hit_ratio"), _in(0.0, 0.05)),
    ("adhoc_analytic", "intermediate hit ratio <= 0.1",
     lambda r: value(r, "parallel.intermediates.hit_ratio"), _in(0.0, 0.1)),
    ("dashboard_repeat", "intermediate hit ratio >= 0.6",
     lambda r: value(r, "parallel.intermediates.hit_ratio"), _in(0.6, 1.0)),
    ("shape_churn", "preparation share of traced time > 0.5",
     preparation_share, _in(0.5, 1.0)),
    ("adhoc_analytic", "preparation share of traced time < 0.05",
     preparation_share, _in(0.0, 0.05)),
    (None, "buffer hit ratio ~ 1",
     lambda r: value(r, "storage.buffer.hit_ratio"), _in(0.99, 1.0)),
)


def separation(results: dict[str, dict[bool, dict]]) -> list[str]:
    """Do the workloads still stress different layers?  One line per
    design condition, ``ok`` or ``DRIFTED``."""
    traced = {
        w: passes[True] for w, passes in results.items() if True in passes
    }
    checks = []

    def check(workload, label, observed, holds):
        flag = "ok" if holds else "DRIFTED"
        checks.append(f"  {flag:8s}{workload}: {label} = {observed:.3f}")

    for only, label, read, holds in CONDITIONS:
        for workload, result in traced.items():
            if only in (None, workload):
                observed = read(result)
                check(workload, label, observed, holds(observed))
    for workload, result in traced.items():
        wire = value(result, "server.wire_s")
        check(workload, "server.wire_s non-zero only on oltp_wire", wire,
              (wire > 0) == (workload == "oltp_wire"))
    return checks


def fingerprint() -> str:
    return (
        f"host: cpu_count={os.cpu_count()} platform={platform.platform()} "
        f"python={platform.python_version()}"
    )


def aa_rounds(
    workloads: list[str], seed: int, scale: str, rounds: int
) -> list[dict[str, dict[bool, dict]]]:
    """The suite ``rounds`` times over.  The untraced pass runs the way
    ``BENCHMARK.json``'s command does, since that is the mode later
    claims are judged in: time-limited, another seed each round.  The
    traced pass replays one seed at the fixed count in the first two
    rounds, which is what comparing its counts takes."""
    seconds = load_spec()["run_seconds"]
    runs = []
    for i in range(rounds):
        runs.append({})
        for workload in workloads:
            runs[i][workload] = {
                False: run_one(workload, seed + i, scale, False, seconds)
            }
            if i < 2:
                runs[i][workload][True] = run_one(workload, seed, scale, True)
    return runs


def aa(
    runs: list[dict[str, dict[bool, dict]]], seed: int, scale: str
) -> tuple[str, bool]:
    """The A/A report over repeated suites, and whether it passed."""
    spec = load_spec()
    lines = [
        f"A/A self-check: {len(runs)} runs of one commit, scale {scale}",
        f"untraced: {' '.join(spec['command'])} --seconds "
        f"{spec['run_seconds']} --trace 0, seeds {seed}..{seed + len(runs) - 1};"
        f" traced: seed {seed}, fixed operation count",
        fingerprint(),
        "spread = (third quartile - first quartile) / median over the runs"
        if len(runs) >= 4 else "spread = (max - min) / median over the runs",
        "raw ops/s = ops_per_s as the clock read it, before calibration",
        "",
        f"{'workload':18s} {'metric':12s} {'median':>12s} {'spread':>8s} "
        f"{'bound':>6s}",
    ]
    passed = True
    for workload in runs[0]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [value(run[workload][False], name) for run in runs]
            ok = spread(values) <= bound
            passed &= ok
            lines.append(
                f"{workload:18s} {name:12s} "
                f"{statistics.median(values):12.4f} {spread(values):8.3f} "
                f"{bound:6.2f}  {'ok' if ok else 'EXCEEDS BOUND'}"
            )
        untraced = [run[workload][False] for run in runs]
        unbounded = {
            "raw ops/s": [r["detail"]["raw"]["ops_per_s"] for r in untraced]
        }
        if all(result["detail"]["writes"] for result in untraced):
            unbounded["write_p50_ms"] = [
                r["detail"]["write_p50_ms"] for r in untraced
            ]
        for name, values in unbounded.items():
            lines.append(
                f"{workload:18s} {name:12s} "
                f"{statistics.median(values):12.4f} {spread(values):8.3f} "
                f"{'':6s}  not in BENCHMARK.json, no bound"
            )
        failed = sum(result["failed"] for result in untraced)
        if failed:
            passed = False
            lines.append(f"{workload:18s} {failed} failed operations")
    # Counts that must repeat exactly between runs of one seed, and on
    # which workloads (oltp_wire interleaves connections, so there they
    # depend on timing and are reported, not required).
    exact = json.loads((HERE / "PREDICTIONS.json").read_text())["exact"]
    lines += ["", "counts in the traced pass:"]
    for workload in runs[0]:
        required = workload in exact["workloads"]
        for name in exact["metrics"]:
            values = [
                value(run[workload][True], name)
                for run in runs if True in run[workload]
            ]
            same = len(set(values)) == 1
            if required:
                passed &= same
            verdict = "exact" if same else (
                "DIFFERS" if required else "differs (connections interleave)"
            )
            lines.append(
                f"{workload:18s} {name:32s} "
                f"{' '.join(f'{v:g}' for v in values)}  {verdict}"
            )
    lines += ["", "PASS" if passed else "FAIL"]
    return "\n".join(lines) + "\n", passed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="run only this workload (repeatable); default all four",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for "
        "later claims",
    )
    parser.add_argument("--scale", choices=("smoke", "full"), default="full")
    parser.add_argument(
        "--traced", action="store_true",
        help="run only the traced pass (per-layer metrics)",
    )
    parser.add_argument(
        "--aa", type=int, metavar="N",
        help="run the suite N times and compare the runs; writes "
        "results/aa_report.txt",
    )
    parser.add_argument(
        "--dump-stream", metavar="PATH",
        help="write the statement streams to PATH and run nothing",
    )
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    require_program()

    if args.dump_stream:
        from benchmarks.e2e import streams

        with open(args.dump_stream, "w") as out:
            for workload in workloads:
                streams.dump(workload, args.seed, args.scale, out)
        return 0

    print(fingerprint())
    if args.aa:
        if args.aa < 2:
            parser.error("--aa needs at least 2 runs")
        runs = aa_rounds(workloads, args.seed, args.scale, args.aa)
        text, passed = aa(runs, args.seed, args.scale)
        RESULTS.mkdir(parents=True, exist_ok=True)
        (RESULTS / "aa_report.txt").write_text(text)
        print(text)
    else:
        passes = (True,) if args.traced else (False, True)
        runs = [run_suite(workloads, args.seed, args.scale, passes)]
        passed = True
    # The smoke scale is sized for speed, not to fit or overflow caches.
    checks = separation(runs[0]) if args.scale == "full" else []
    if checks:
        print("layer separation (traced pass):")
        print("\n".join(checks))
    correct = all(
        result["correct"]
        for run in runs for passes in run.values()
        for result in passes.values()
    )
    if not correct:
        print("FAILED: an operation raised or differed from the oracle")
    return 0 if correct and passed else 1
