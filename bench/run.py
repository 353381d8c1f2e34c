"""Benchmark of minimaxreg: one workload, one seed, one run.

Usage:
    python3 bench/run.py --workload sim-square --seed 1 --seconds 15 --trace 0

Generates the workload's inputs from the seed, measures set-up time in
fresh interpreters, runs the timed body in a fresh single-threaded worker
process, checks every output, and prints a readable report followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run. The exit code is 0 when every check
passed, 1 when a check failed, and 2 when the run could not be made (for
example when ``src/minimaxreg`` is not in the checkout).

Everything the run writes stays under ``.bench_work/`` in the checkout:
inputs are removed at the end; results and spans are kept in
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import inputs
from locate import ROOT, SRC, package_present
from machine import BLAS_THREAD_VARS, record

BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")

# Fresh interpreters sampled per run for setup_s; the median is reported.
SETUP_SAMPLES = 5
# A run, set-up included, must end well inside three minutes.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    """A run that could not be made; it has no result."""


def _child(script: str, args: list, env: dict, deadline: float) -> dict:
    """Run a bench script in a fresh interpreter and parse its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"no time left to start {script}")
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH, script), *args],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{script} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"{script} exited with code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list) -> tuple:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile). Below 100 samples that percentile falls
    under p90, and its position would swing with the sample count, so the
    maximum is reported as percentile 100 instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 100:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup: list, worker: dict) -> tuple:
    lat = worker["latencies_s"]
    tail_value, tail_pct = tail(lat)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) * worker["ops_per_call"] / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    notes = {
        "op_tail_percentile": tail_pct,
        "op_samples": len(lat),
        "setup_samples_s": setup,
    }
    return metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=tuple(inputs.SIZES),
                        help="input sizes; 'smoke' is the tiny shape the tests use")
    return parser.parse_args(argv)


def measure(args, env: dict, run_dir: str, spans_path: str) -> tuple:
    deadline = time.monotonic() + RUN_DEADLINE_S
    manifest = inputs.generate(args.workload, args.seed, args.size,
                               os.path.join(run_dir, "inputs"))
    manifest_path = os.path.join(run_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    setup = [] if args.trace else [
        _child("probe.py", [manifest_path, run_dir], env, deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    worker = _child("worker.py", [manifest_path, run_dir, str(args.seconds),
                                  str(args.trace), spans_path], env, deadline)
    return setup, worker


def main(argv=None) -> int:
    args = parse_args(argv)
    if not package_present():
        print(f"error: no minimaxreg sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(WORK, f"run-{tag}-{os.getpid()}")
    spans_path = os.path.join(results_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    try:
        setup, worker = measure(args, env, run_dir, spans_path)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics, notes = worker["metrics"], {"spans": worker["spans"], "spans_file": spans_path}
    else:
        metrics, notes = end_to_end(setup, worker)
    correct = worker["problem_count"] == 0
    machine = record(ROOT, args.seed, env)
    result = {"correct": correct, "attempted": worker["attempted"],
              "failed": worker["failed"], "metrics": metrics}

    print(f"minimaxreg benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, size {args.size}, {worker['calls']} calls")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for name, notes_value in sorted(notes.items()):
        print(f"  {name}: {notes_value}")
    print(f"  fail_frac: {worker['failed'] / worker['attempted']!r} "
          f"({worker['failed']} of {worker['attempted']} fits failed)")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']!r} {metric['unit']}")
    if correct:
        print("checks: all passed")
    else:
        print(f"checks: FAILED ({worker['problem_count']} problems)")
        for problem in worker["problems"]:
            print(f"  - {problem}")
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump({"machine": machine, "result": result, "notes": notes,
                   "latencies_s": worker["latencies_s"]}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
