#!/usr/bin/env python3
"""The redeploy benchmark.

    python3 bench/run.py --workload wide --seed 1 --seconds 32 --trace 0

Run it from the repository root.  It drives redeploy in this process with
one closed-loop client and no threads: each operation starts when the
previous one has returned and its output has been checked.

Set-up imports redeploy from ./src, then generates, validates and writes
every input of the workload's pool under bench/out/, so that its cost does
not hang on which entries the seed picks.  The timed loop runs the seed's
operations for --seconds seconds of operation time (and at least MIN_OPS
operations), cut into SETUP_REPEATS equal slices with a fresh set-up before
each; setup_s is the median set-up time.  Spreading the set-ups over the run
lets them see the same machine as the operations do.  A calibration round
(calibrate.py) after every operation and before every set-up gauges the
machine's speed, and the reported times are scaled to the reference
machine's speed; the summary lines give them as measured too.

With --trace 0 the last line of standard output carries the end-to-end
metrics of BENCHMARK.json; with --trace 1 the same loop is followed by a
traced pass over the workload's first operations, and the last line carries
the per-layer metrics.  Every operation's output is checked; an operation
that raises, exits non-zero or fails its check counts as failed.  A results
document with the environment, every operation time and, when traced, the
per-layer metrics (also split by CLI command) and the span dump is written to
bench/out/results-<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import calibrate  # noqa: E402  (sibling modules of this script)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 8
MIN_OPS = 20      # so that the tail percentile has ten samples beyond it
TAIL_BEYOND = 10
TRACE_OPS = 12    # operations in the traced pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_op(op, around=None) -> tuple[float, str | None]:
    """Wall time of one operation and the reason it failed, or None."""
    start = time.perf_counter()
    try:
        with around or contextlib.nullcontext():
            raw = op.run()
    except Exception as exc:  # a raising operation is a failed one
        return time.perf_counter() - start, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workloads.check(op, raw)
    except Exception as exc:  # so is one whose output cannot be read
        return elapsed, f"check raised {exc!r}"


def new_loop() -> dict:
    """Operation times, failures, operation time so far, and the time of
    each calibration round taken between operations and set-ups."""
    return {"times": [], "failures": [], "timed_s": 0.0, "calibration": []}


def timed_loop(loop: dict, ops, seconds: float, min_ops: int):
    """Continue the cycle of `loop` until it holds `seconds` of operation
    time and `min_ops` operations."""
    times = loop["times"]
    while loop["timed_s"] < seconds or len(times) < min_ops:
        op = ops[len(times) % len(ops)]
        elapsed, reason = run_op(op)
        if reason is not None:
            loop["failures"].append({"op": len(times), "kind": op.kind,
                                     "entry": op.entry, "reason": reason})
        times.append(elapsed)
        loop["timed_s"] += elapsed
        loop["calibration"].append(calibrate.sample())


def traced_pass(ops) -> tuple[tracing.Tracer, list[float], list[dict]]:
    tracer = tracing.Tracer()
    times, failures = [], []
    with tracer:
        for k, op in enumerate(ops):
            elapsed, reason = run_op(op, tracer.operation(k, op.kind))
            if reason is not None:
                failures.append({"op": k, "kind": op.kind, "entry": op.entry,
                                 "reason": reason, "traced": True})
            times.append(elapsed)
    return tracer, times, failures


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of `values`.

    A weighted mean of all order statistics, the i-th (from 0) weighted by
    the mass a Beta(p(n+1), (1-p)(n+1)) variable puts on [i/n, (i+1)/n].
    It estimates the same quantile as a single order statistic, with less
    scatter from one sample to the next.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_scale = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        if not 0 < t < 1:
            return 0.0
        return math.exp(log_scale + (a - 1) * math.log(t)
                        + (b - 1) * math.log1p(-t))

    steps = 16  # Simpson's rule on each order statistic's interval
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        ends = density(i / n) + density((i + 1) / n)
        inner = sum((4 if k % 2 else 2) * density(i / n + k * h)
                    for k in range(1, steps))
        weights.append((ends + inner) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(loop: dict, setup: list[float]) -> tuple[dict, dict, dict]:
    """The end-to-end metrics at the reference machine speed, the same
    as measured (raw), and the tail percentile with its sample count."""
    times = loop["times"]
    n = len(times)
    failed = len(loop["failures"])
    # the quantile of the order statistic with TAIL_BEYOND samples above it
    tail_p = (n - TAIL_BEYOND) / (n + 1)
    raw = {
        "op_p50_s": harrell_davis(times, 0.5),
        "op_tail_s": harrell_davis(times, tail_p),
        "ops_per_s": (n - failed) / loop["timed_s"],
        "setup_s": statistics.median(setup),
    }
    # > 1 when the machine ran slower than the reference machine.  The
    # mean, not the median: round times gather around a fast and a slow
    # mode, and the share of each is what sets the speed of an operation.
    slowdown = statistics.fmean(loop["calibration"]) / calibrate.REFERENCE_S
    metrics = {name: value * slowdown if name == "ops_per_s"
               else value / slowdown for name, value in raw.items()}
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw["slowdown"] = slowdown
    tail = {"percentile": 100 * tail_p, "samples": n,
            "beyond": TAIL_BEYOND}
    return metrics, raw, tail


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is no git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "redeploy" / "__init__.py").is_file():
        print(f"error: no redeploy package under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference(HERE / "reference.json")
    entries = reference[args.workload]
    indices = workloads.select(
        workload, {e["index"]: e["cost_s"] for e in entries}, args.seed)
    expects = {e["index"]: e["expect"] for e in entries}
    work = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)

    setup, ops = [], None
    loop = new_loop()
    for k in range(1, SETUP_REPEATS + 1):
        ops = None  # each set-up starts from the same heap
        gc.collect()
        loop["calibration"].append(calibrate.sample())
        start = time.perf_counter()
        redeploy = workloads.import_program(src)
        ops = workloads.prepare(redeploy, args.workload,
                                range(workload.pool), work, expects)
        ops = [ops[index] for index in indices]
        setup.append(time.perf_counter() - start)
        gc.collect()  # the replaced package, outside the timed operations
        timed_loop(loop, ops, args.seconds * k / SETUP_REPEATS,
                   max(MIN_OPS, TRACE_OPS) * k // SETUP_REPEATS)

    prefix = ops[:TRACE_OPS]
    e2e, raw, tail = end_to_end(loop, setup)
    failures = list(loop["failures"])
    attempted = len(loop["times"])
    doc = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "environment": environment(), "setup_s_samples": setup,
           "entries": indices, "end_to_end": e2e, "raw": raw, "tail": tail,
           "op_times_s": loop["times"], "calibration_s": loop["calibration"]}

    if args.trace:
        tracer, traced_times, traced_failures = traced_pass(prefix)
        failures += traced_failures
        attempted += len(prefix)
        layers = tracing.layer_metrics(tracer, range(len(prefix)))
        layers["tracing.overhead_ratio"] = \
            sum(traced_times) / sum(loop["times"][:len(prefix)])
        doc["per_layer"] = layers
        doc["per_layer_by_command"] = {
            command: tracing.layer_metrics(tracer, range(len(prefix)),
                                           command)
            for command in sorted(set(tracing.commands(tracer.spans))
                                  - {None})}
        doc["traced_op_times_s"] = traced_times
        doc["untraced_targets"] = tracer.missing
        doc["spans"] = tracer.dump()
        listed, values = spec["per_layer"], layers
    else:
        listed, values = spec["end_to_end"], e2e
    doc["failures"] = failures
    shutil.rmtree(work)

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / (f"results-{args.workload}-seed{args.seed}"
                  f"-trace{args.trace}.json")
    path.write_text(json.dumps(doc))

    print(f"{args.workload} seed {args.seed}: {attempted} operations, "
          f"{len(failures)} failed (error_rate "
          f"{len(failures) / attempted:.4g})")
    print(f"  op_p50_s {e2e['op_p50_s']:.4f} s, op_tail_s "
          f"{e2e['op_tail_s']:.4f} s at p{tail['percentile']:.1f} of "
          f"{tail['samples']} samples, ops_per_s {e2e['ops_per_s']:.3f} 1/s,"
          f" setup_s {e2e['setup_s']:.4f} s, peak_rss_mb "
          f"{e2e['peak_rss_mb']:.1f} MB")
    print(f"  as measured, on a machine {raw['slowdown']:.3f}x the reference's"
          f" time: op_p50_s {raw['op_p50_s']:.4f} s, op_tail_s "
          f"{raw['op_tail_s']:.4f} s, ops_per_s {raw['ops_per_s']:.3f} 1/s, "
          f"setup_s {raw['setup_s']:.4f} s")
    for failure in failures[:5]:
        print(f"  FAILED {failure}")
    print(f"  results: {path.relative_to(ROOT)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
