"""One run: one workload, one pass (untraced or traced), this process.

Set-up → untimed warm-up → timed phase → post-hoc verification.  The
timed phase ends after ``--seconds`` of measured time (the command
``BENCHMARK.json`` names, :func:`main`) or, when the suite calls
:func:`run` without a time limit, after the scale's fixed operation
count, so that counts repeat.  End-to-end timings are reported at
reference speed (``calibrate.py``), the clock's own readings next to
them.  The last line :func:`main` prints is the result as one JSON
object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any

from benchmarks.e2e import (
    DEFAULT_SEED, HELD_OUT_SEED, RESULTS, WORKLOADS, layers, load_spec,
    streams,
)
from benchmarks.e2e.calibrate import Calibration
from benchmarks.e2e.measure import (
    highest_supported_percentile,
    percentile,
    samples_beyond,
)
from benchmarks.e2e.spans import Tracer
from benchmarks.e2e.streams import READ, WRITE
from benchmarks.e2e.workloads import WORKLOADS as CLASSES

#: Set-ups per untraced run — ``setup_s`` is their median: at least
#: MIN_SETUPS, and more (up to MAX_SETUPS) while they have taken less
#: than SETUP_SECONDS together, so a 25 ms set-up is not judged on three
#: samples.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 25, 1.5
#: Share of ``--seconds`` the oracle may spend after a time-limited run.
VERIFY_SHARE = 0.4


def prepare_environment() -> None:
    """Drop every ``REPRO_*`` knob, so the environment cannot reroute a
    run onto another executor, placement or tracing mode, and keep the
    program's scratch files (generated modules) inside the checkout."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    scratch = RESULTS / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)


def _ms(samples: list[float], p: float) -> float:
    return percentile(samples, p) * 1000.0 if samples else 0.0


def run(
    workload: str,
    seed: int,
    scale: str = "full",
    seconds: float | None = None,
    trace: bool = False,
) -> dict[str, Any]:
    """Execute one pass and return everything measured: the four keys
    of the contract's result plus ``detail`` for people and the suite."""
    prepare_environment()
    spec = load_spec()
    sizes = streams.SCALES[scale]
    count = sizes["ops"][workload] if seconds is None else sys.maxsize

    origin = time.perf_counter()
    calibration = Calibration()
    probe = None
    if trace:
        probe = layers.LayerProbe(Tracer())
        probe.install()

    # -- set-up (a traced pass reports no setup_s, so it sets up once) ----
    setups: list[float] = []
    setup_starts: list[float] = []
    bench = None
    while len(setups) < (1 if trace else MAX_SETUPS) and (
        len(setups) < MIN_SETUPS or sum(setups) < SETUP_SECONDS
    ):
        if bench is not None:
            bench.teardown()
        bench = CLASSES[workload](seed, scale, calibration)
        gc.collect()
        calibration.sample()
        setup_starts.append(time.perf_counter())
        bench.setup()
        setups.append(time.perf_counter() - setup_starts[-1])
        calibration.sample()
    try:
        setup_spans = len(probe.tracer.spans) if trace else 0
        gc.collect()

        # -- warm-up, then the timed phase --------------------------------
        warm, _ = bench.run_phase(sizes["warmup"][workload], None, probe)
        first_span = len(probe.tracer.spans) if trace else 0
        before = layers.snapshot(bench.db, bench.server)
        first_sample = len(calibration.slowdowns)
        timed, wall = bench.run_phase(count, seconds, probe)
        after = layers.snapshot(bench.db, bench.server)
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        if trace:
            probe.uninstall()

        # -- outside every timing: baselines and the oracle ---------------
        engines = bench.baselines(timed) if trace else {}
        started = time.perf_counter()
        budget = None if seconds is None else seconds * VERIFY_SHARE
        checked, mismatches = bench.verify(warm, timed, budget)
        verify_s = time.perf_counter() - started
    finally:
        bench.teardown()

    errors = [d for d in timed + warm if d.error is not None]
    attempted = len(timed)
    failed = min(attempted, len(errors) + len(mismatches))

    # Every timing is reported at reference speed (calibrate.py), with
    # the numbers as the clock read them next to it.
    def latencies(kind: str) -> tuple[list[float], list[float]]:
        mine = [d for d in timed if d.op.kind == kind and not d.error]
        return [d.seconds for d in mine], [
            calibration.scaled(d.start, d.start + d.seconds) for d in mine
        ]

    raw_reads, reads = latencies(READ)
    raw_writes, writes = latencies(WRITE)
    #: Share of reference speed the host ran at during the timed phase.
    host_speed = statistics.fmean(
        1.0 / s for s in calibration.slowdowns[first_sample:]
    )
    raw_ops_per_s = (attempted - failed) / wall if wall else 0.0
    ops_per_s = raw_ops_per_s / host_speed
    raw = {
        "setup_s": statistics.median(setups),
        "ops_per_s": raw_ops_per_s,
        "read_p50_ms": _ms(raw_reads, 50),
        "read_p95_ms": _ms(raw_reads, 95),
        "write_p50_ms": _ms(raw_writes, 50),
    }

    if not trace:
        listed = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(
                calibration.scaled(start, start + seconds)
                for start, seconds in zip(setup_starts, setups)
            ),
            "ops_per_s": ops_per_s,
            "read_p50_ms": _ms(reads, 50),
            "read_p95_ms": _ms(reads, 95),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        listed = spec["per_layer"]
        tracer = probe.tracer
        values = layers.counter_metrics(before, after, attempted)
        values.update(probe.span_metrics(tracer.spans[first_span:], attempted))
        values.update(probe.load_metrics(tracer.spans[:setup_spans]))
        values.update(engines)
        # The suite divides this by the untraced ops_per_s to print
        # trace_overhead_ratio; one run cannot see both passes.
        values["traced_ops_per_s"] = ops_per_s
        tracer.write(
            RESULTS / f"trace_{workload}.json", origin,
            workload=workload, seed=seed, scale=scale, operations=attempted,
        )
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed
    }

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "timed_seconds": wall,
            "reads": len(reads),
            "writes": len(writes),
            "read_tail_samples": samples_beyond(len(reads), 95),
            "supported_percentile": highest_supported_percentile(len(reads)),
            # User-facing, but not in BENCHMARK.json's end_to_end: two
            # workloads have no writes, and failed_share is 0 on a
            # correct program (it is the result's failed / attempted).
            "write_p50_ms": _ms(writes, 50),
            "failed_share": failed / attempted if attempted else 0.0,
            "host_speed": host_speed,
            "raw": raw,
            "verify_s": verify_s,
            "verified": checked,
            "setups": setups,
            "problems": [d.error for d in errors][:20] + mismatches[:20],
        },
    }


def report(result: dict[str, Any], out=sys.stdout) -> None:
    """Every metric by name, with its unit and sample count."""
    detail = result["detail"]
    kind = "traced" if detail["trace"] else "untraced"
    out.write(
        f"{detail['workload']} seed={detail['seed']} ({kind}): "
        f"{result['attempted']} operations in "
        f"{detail['timed_seconds']:.2f} s, {detail['reads']} reads, "
        f"{detail['writes']} writes\n"
    )
    lines = [
        (name, metric["value"], metric["unit"])
        for name, metric in result["metrics"].items()
    ]
    if not detail["trace"]:
        if detail["writes"]:
            lines.append(("write_p50_ms", detail["write_p50_ms"], "ms"))
        lines.append(("failed_share", detail["failed_share"], "ratio"))
    lines.append(("verify_s", detail["verify_s"], "s"))
    tail = ""
    if detail["supported_percentile"] < 95:
        tail = (
            f"; only {detail['read_tail_samples']} samples beyond it, "
            f"p{detail['supported_percentile']} is the highest supported"
        )
    notes = {
        "setup_s": f"median of {len(detail['setups'])}",
        "ops_per_s": f"n={result['attempted']}",
        "read_p50_ms": f"n={detail['reads']}",
        "read_p95_ms": f"n={detail['reads']}{tail}",
        "write_p50_ms": f"n={detail['writes']}",
        "failed_share": f"{result['failed']} of {result['attempted']}",
        "verify_s": f"{detail['verified']} operations checked",
    }
    for name, value, unit in lines:
        note = f"  ({notes[name]})" if name in notes else ""
        out.write(f"  {name:40s} {value:14.6g} {unit}{note}\n")
    if not detail["trace"]:
        out.write(
            f"  as the clock read them, the host at "
            f"{detail['host_speed']:.2f} of reference speed: "
            + ", ".join(
                f"{name} {value:.4g}"
                for name, value in detail["raw"].items() if value
            ) + "\n"
        )
    for problem in detail["problems"]:
        out.write(f"  PROBLEM {problem}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for "
        "later claims",
    )
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="end the timed phase after this much measured time",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(
        args.workload, args.seed, seconds=args.seconds, trace=bool(args.trace)
    )
    report(result)
    del result["detail"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1
