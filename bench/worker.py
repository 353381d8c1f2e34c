"""Runs one workload's timed body in a fresh, single-threaded process.

Usage: python3 bench/worker.py MANIFEST.json WORKDIR SECONDS TRACE SPANS_PATH

``bench/run.py`` starts it with the BLAS thread counts pinned to 1. It warms
the interpreter up with the workload's tiny call, then makes calls in whole
passes over the workload's inputs until the next pass would end after
SECONDS, and prints one JSON object as its last line.

With TRACE = 1 every input is called twice per pass, once traced and once
untraced, alternating which goes first; the untraced calls give the
baseline for ``trace.overhead_frac`` and the spans go to SPANS_PATH.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

from locate import import_package
from tracer import Tracer

# A call whose check fails is kept, but only the first few problems are shown.
MAX_PROBLEMS = 20
# Least share of the traced wall time that span self times may leave uncovered.
GAP_FLOOR = 0.01


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.problems = []

    def call(self, index: int, tracer=None) -> float:
        """One timed call of input ``index``, then its output check."""
        workload = self.workload
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = workload.call(index)
        except Exception:
            result = None
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
        if result is None:
            workload.failed += workload.fits_per_call
            self.problems.append(f"input {index}: call raised")
        else:
            self.problems.extend(workload.check(index, result))
        return t1 - t0

    def loop(self, seconds: float, min_passes: int, one_pass) -> None:
        start = time.perf_counter()
        passes = 0
        while True:
            one_pass(passes)
            passes += 1
            elapsed = time.perf_counter() - start
            if passes >= min_passes and elapsed * (passes + 1) / passes > seconds:
                return


def per_layer(summary: dict, counts: dict, calls: int) -> dict:
    """Per-layer metrics, each a total over the traced calls divided by ``calls``."""

    def total(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def per_call(value):
        return value / calls

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out = {}

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    for name in ("simulation.run_experiment", "lp.minimax_fit_lp"):
        put(f"{name}.s", per_call(total(name, "s")), "s")
        put(f"{name}.self_s", per_call(total(name, "self_s")), "s")
    for name in ("simulation.ks_distance", "lp.minimax_fit_lp", "simplex.solve_standard_form",
                 "closed_form.closed_form_fit", "closed_form.lse_fit",
                 "model.max_abs_residual", "model.matrix"):
        put(f"{name}.calls", per_call(total(name, "calls")), "count")
    for name in ("simulation.ks_distance", "simplex.solve_standard_form",
                 "closed_form.closed_form_fit", "closed_form.lse_fit",
                 "evt.sample", "evt.sample_attraction", "evt.limit_cdf",
                 "model.simulate_dataset", "model.group_extremes_replicated",
                 "model.max_abs_residual", "cli.read_fit_csv", "cli.detect_replication",
                 "cli.parse_experiment_config", "report_io.canonical_json",
                 "report_io.tsv_table", "report_io.atomic_write_text"):
        put(f"{name}.s", per_call(total(name, "s")), "s")
    put("cli.main.self_s", per_call(total("cli.main", "self_s")), "s")

    put("simulation.failures", per_call(counts["simulation.failures"]), "count")
    put("lp.nonunique_frac", ratio(counts["lp.nonunique"], total("lp.minimax_fit_lp", "calls")),
        "ratio")
    pivots = counts["simplex.pivots"]
    put("simplex.pivots", per_call(pivots), "count")
    put("simplex.pivots_per_solve", ratio(pivots, total("simplex.solve_standard_form", "calls")),
        "count")
    put("simplex.us_per_pivot", ratio(total("simplex.solve_standard_form", "s"), pivots, 1e6), "us")
    put("simplex.priced_mb", per_call(counts["simplex.priced_bytes"]) / 1e6, "MB")
    for name in ("evt.sample", "evt.sample_attraction"):
        put(f"{name}.draws", per_call(counts[f"{name}.draws"]), "count")
    put("evt.sample.ns_per_draw",
        ratio(total("evt.sample", "s"), counts["evt.sample.draws"], 1e9), "ns")
    put("evt.limit_cdf.points", per_call(counts["evt.limit_cdf.points"]), "count")
    put("model.matrix.mb", per_call(counts["model.matrix.bytes"]) / 1e6, "MB")
    put("cli.read_fit_csv.rows_per_s",
        ratio(counts["cli.read_fit_csv.rows"], total("cli.read_fit_csv", "s")), "rows/s")
    put("report_io.bytes", per_call(counts["report_io.bytes"]), "B")
    return out


def run_plain(runner: Runner, seconds: float, min_passes: int) -> dict:
    latencies = []
    runner.loop(seconds, min_passes, lambda _: latencies.extend(
        runner.call(j) for j in range(runner.workload.inputs)))
    return {"latencies_s": latencies}


def run_traced(runner: Runner, seconds: float, min_passes: int, spans_path: str) -> dict:
    tracer = Tracer()
    plain, traced = [], []

    def one_pass(number):
        for j in range(runner.workload.inputs):
            for on in ((False, True) if number % 2 == 0 else (True, False)):
                if on:
                    traced.append(runner.call(j, tracer))
                else:
                    plain.append(runner.call(j))

    runner.loop(seconds, min_passes, one_pass)
    summary = tracer.summary()
    tracer.dump(spans_path)
    metrics = per_layer(summary, tracer.counts, len(traced))
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    # Calls are nested on one thread, so self times partition the spans of
    # the top-level calls; what they miss is harness time, or a garbage
    # collection, between the clock and the first span. The overhead is a
    # difference of two noisy medians and can come out near or below zero,
    # so the allowance never drops below GAP_FLOOR.
    wall = sum(traced)
    self_sum = sum(rec["self_s"] for rec in summary.values())
    if abs(wall - self_sum) > max(overhead, GAP_FLOOR) * wall:
        runner.problems.append(
            f"span self times sum to {self_sum:.6f} s of {wall:.6f} s traced wall time, "
            f"outside trace.overhead_frac {overhead:.4f}")
    return {"latencies_s": traced, "untraced_latencies_s": plain,
            "spans": len(tracer.spans), "metrics": metrics}


def main(argv) -> int:
    manifest_path, workdir, seconds, trace, spans_path = argv
    import_package()
    import workloads

    with open(manifest_path) as fh:
        manifest = json.load(fh)
    workload = workloads.make(manifest, workdir)
    runner = Runner(workload)
    # A simulate call is seconds long, so take a few even when a run is short.
    sim = workload.ops_per_call > 1
    # The CLI's one-line status messages go nowhere; stdout carries the result.
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        workloads.warmup_call(manifest, workdir)()
        if trace == "1":
            out = run_traced(runner, float(seconds), 2 if sim else 1, spans_path)
        else:
            out = run_plain(runner, float(seconds), 3 if sim else 1)
    calls = len(out["latencies_s"]) + len(out.get("untraced_latencies_s", ()))
    out.update({
        "calls": calls,
        "ops_per_call": workload.ops_per_call,
        "attempted": calls * workload.fits_per_call,
        "failed": workload.failed,
        "problems": runner.problems[:MAX_PROBLEMS],
        "problem_count": len(runner.problems),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
