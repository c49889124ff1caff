#!/usr/bin/env python3
"""Layered benchmark for balmat.

    python3 perfbench/run.py --workload campaign_2x2 --seed 1 --seconds 36 --trace 0

Runs one workload (see workloads.py) as a closed loop: one caller, one
operation at a time, whole rounds of the same operations until `--seconds`
have passed. Every operation's output is checked against independent
computations (oracles.py). The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics. `--trace 1` reports the
per-layer metrics instead: it runs part of the time untraced, the rest with
every public balmat function wrapped in spans (tracer.py), then times the
isolated kernels and the import of each balmat module. A full record of
each run, with backend and Python version, goes to perfbench/out/.

Must run from a balmat checkout: it imports `balmat` from `src/` next to
this directory and exits non-zero without a result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

OUT = Path(__file__).resolve().parent / "out"

#: Fresh processes timed from spawn to their first operation for setup_s.
SETUP_PROBES = 7

#: Share of a traced run spent untraced, to measure the tracing overhead.
UNTRACED_SHARE = 0.3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "trials_per_s": "trial/s",
    "peak_rss_mib": "MiB",
}


class Tally:
    """What one measured stretch of operations did."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.op_types: list[str] = []  # parallel to latencies_ns
        self.trials = 0
        self.trial_ns = 0  # time spent in operations that ran trials
        self.applicable = 0
        self.out_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.maxrss_kib = 0  # largest child process, for CLI operations

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def run_rounds(wl, seconds: float, tally: Tally, k: int = 0) -> int:
    """Whole rounds of `wl.ops` until `seconds` pass; returns the next index."""
    deadline = time.perf_counter() + seconds
    while True:
        for op in wl.ops:
            prepared = wl.prepare(op, k)
            k += 1
            tally.attempted += 1
            start = time.perf_counter_ns()
            try:
                result = wl.call(prepared)
            except Exception as exc:  # an operation that raises has failed
                tally.failed += 1
                tally.problems.append(f"{op}: raised {exc!r}")
                continue
            elapsed = time.perf_counter_ns() - start
            if getattr(result, "code", 0) != 0:  # a CLI process that exits non-zero
                tally.failed += 1
                tally.problems += wl.check(prepared, result)
                continue
            tally.problems += wl.check(prepared, result)
            tally.latencies_ns.append(elapsed)
            tally.op_types.append(str(op))
            trials, applicable, out_bytes = wl.counts(prepared, result)
            if trials:
                tally.trials += trials
                tally.trial_ns += elapsed
            tally.applicable += applicable
            tally.out_bytes += out_bytes
            tally.maxrss_kib = max(tally.maxrss_kib, getattr(result, "maxrss_kib", 0))
        if time.perf_counter() >= deadline:
            return k


def probe_setup(args) -> list[float]:
    """setup_s samples: fresh processes, from spawn to ready for the first operation."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--probe-setup"],
            capture_output=True, text=True, cwd=workloads.ROOT,
        )  # fmt: skip
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed: {proc.stderr[-400:]}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def end_to_end(wl, tally: Tally, setup_samples: list[float]) -> dict[str, float]:
    lat_ms = [ns / 1e6 for ns in tally.latencies_ns]
    if isinstance(wl, workloads.CliWorkload):
        peak_kib = tally.maxrss_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
        "trials_per_s": tally.trials / (tally.trial_ns / 1e9),
        "peak_rss_mib": peak_kib / 1024,
    }


def per_layer(wl, args, tally: Tally) -> dict[str, float]:
    import tracer

    plain = Tally()
    k = run_rounds(wl, args.seconds * UNTRACED_SHARE, plain)
    t = tracer.Tracer()
    traced = Tally()
    t.install()
    try:
        run_rounds(wl, args.seconds * (1 - UNTRACED_SHARE), traced, k)
        rref_per_det = 0.0
        if isinstance(wl, workloads.CliWorkload):
            before = t.calls("algebra.rref_with_trail")
            for variant in range(workloads.CSV_VARIANTS):
                wl.call(wl.prepare("det", variant * len(wl.ops)))
            rref_per_det = (t.calls("algebra.rref_with_trail") - before) / workloads.CSV_VARIANTS
    finally:
        t.uninstall()
    tally.add(plain)
    tally.add(traced)

    n_ops = len(traced.latencies_ns)
    parses = t.calls("cli.parse_matrix_csv")
    metrics = tracer.layer_metrics(t, traced.trials)
    metrics.update(
        {
            "genfuzz.applicable_ratio": traced.applicable / traced.trials if traced.trials else 0.0,
            "cli.parse_matrix_csv.us_per_op": t.total_us("cli.parse_matrix_csv") / parses if parses else 0.0,
            "cli.render.us_per_op": t.total_us("cli.render") / n_ops,
            "cli.render.bytes_per_op": traced.out_bytes / n_ops,
            "cli.rref_with_trail.calls_per_op": rref_per_det,
            "trace.overhead_ratio": (sum(traced.latencies_ns) / n_ops)
            / (sum(plain.latencies_ns) / len(plain.latencies_ns)),
        }
    )
    kernels, problems = tracer.kernel_timings(workloads.derive(args.seed, "kernels"))
    tally.problems += problems
    metrics.update(kernels)
    metrics.update(tracer.import_times())
    return {name: (metrics[name], unit) for name, unit in tracer.PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = OUT / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, workdir, traced=bool(args.trace))
        wl.warm_up()
        if args.probe_setup:
            print(time.monotonic())
            return 0
        tally = Tally()
        if args.trace:
            metrics = per_layer(wl, args, tally)
        else:
            run_rounds(wl, args.seconds, tally)
            values = end_to_end(wl, tally, probe_setup(args))
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        tally.problems += workloads.check_generated(workloads.import_balmat(), args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not tally.problems
    for problem in tally.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": wl.backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **result,
        "op_ms_p50_by_type": {
            op: statistics.median(ns / 1e6 for ns, t in zip(tally.latencies_ns, tally.op_types) if t == op)
            for op in dict.fromkeys(tally.op_types)
        },
    }
    (OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"perfbench {args.workload}: backend {wl.backend}, Python {record['python']}, "
        f"{tally.attempted} operations, {tally.failed} failed, seed {args.seed}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
