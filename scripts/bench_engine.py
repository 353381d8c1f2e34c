"""Time the Monte Carlo engine's stages at the example-3 shape, before and after a change.

Usage:
    python3 scripts/bench_engine.py --src src --parent-src PARENT/src \
        --out BENCH_engine.json

Each (source tree, family) cell runs ROUNDS times, alternating the trees,
each time in a fresh interpreter with BLAS on one thread that imports
``minimaxreg`` from the given tree; a stage's timings are pooled over the
rounds, so drift on a shared host falls on both trees alike. The shape is
ROADMAP example 3: levels V = [[1, 0], [1, 1]], theta = (1, 2), n = 2000
and m = 2000 replications, 10^6 reference draws. After one untimed warm-up
of each stage a round times, over at least RUNS calls (SLOW_RUNS for the
stages that take seconds on some families) and MIN_SECONDS:

- ``level_extremes``: ``simulation._level_extremes`` on all m replications,
  with methods lp and closed_form, and ``level_extremes_lse`` with lse added;
- ``lp_loop``: the engine's per-replication LP fits, one
  ``minimax_fit_lp(Dataset(ReplicatedDesign(V, 2), ...))`` each;
- ``closed_form_batch`` on all m replications;
- ``limit_cdf``: the qpower law at the m scaled deltas;
- ``reference_ks``: the direct-simulation reference and the four
  coefficient KS distances against it (two methods, two coefficients), as
  the engine runs them: one streamed pass, ``simulation._detlaw_ks``;
- ``ecdf_write``: ``cli._ecdf_outputs`` and ``report_io.atomic_write_text``
  of every ECDF table of one report;
- ``run_experiment``: the whole engine call.

Every stage reports the median and quartiles of its milliseconds per call
over all rounds; the first two and the LP loop also report microseconds
per replication. ``peak_mb`` is the ``tracemalloc`` peak of one more,
untimed call: the most memory its allocations held at once, in 10^6 bytes,
the largest over the rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

FAMILIES = (("uniform_symmetric", None), ("laplace", None), ("bounded_power", 1.5),
            ("pareto_symmetric", 2.5), ("gaussian", None))
SHAPE = {"levels": [[1.0, 0.0], [1.0, 1.0]], "theta": [1.0, 2.0], "n": 2000, "m": 2000,
         "reference_draws": 1_000_000, "master_seed": 20151}
ROUNDS = 3
RUNS = 5
MIN_SECONDS = 0.5
# Fewest calls per round of the stages that take seconds on some families:
# the whole engine call and the quadrature behind the qpower law.
SLOW_RUNS = {"run_experiment": 2, "limit_cdf": 2}
PER_REPLICATION = ("level_extremes", "level_extremes_lse", "lp_loop")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _time(fn, stage: str) -> list:
    """Seconds per call of one round, after an untimed warm-up call."""
    fn()
    times = []
    runs = SLOW_RUNS.get(stage, RUNS)
    while len(times) < runs or sum(times) < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _peak_mb(fn) -> float:
    """tracemalloc peak of one call, in 10^6 bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _summary(stage: str, times: list, peaks: list) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    record = {"runs": len(times), "ms": round(1e3 * median, 3),
              "ms_quartiles": [round(1e3 * q1, 3), round(1e3 * q3, 3)],
              "peak_mb": round(max(peaks), 3)}
    if stage in PER_REPLICATION:
        record["us_per_replication"] = round(1e6 * median / SHAPE["m"], 2)
    return record


def worker(src: str, family: str, alpha) -> dict:
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    import minimaxreg as mr
    from minimaxreg import cli, evt, simulation
    from minimaxreg.closed_form import closed_form_batch
    from minimaxreg.report_io import atomic_write_text

    n, m = SHAPE["n"], SHAPE["m"]

    def config(methods):
        return mr.ExperimentConfig(
            model=mr.ErrorModel(family, alpha), levels=SHAPE["levels"], n_values=(n,),
            replications=m, master_seed=SHAPE["master_seed"], true_theta=SHAPE["theta"],
            methods=methods, reference_draws=SHAPE["reference_draws"])

    plain, with_lse = config(("lp", "closed_form")), config(("lp", "closed_form", "lse"))
    V = plain.levels
    (y_max, y_min, _, _), _ = simulation._level_extremes(plain, n, range(m))
    reduced = mr.ReplicatedDesign(V, 2)
    y_pairs = np.stack([y_max, y_min], axis=2).reshape(m, 2 * plain.k)

    def lp_loop():
        for idx in range(m):
            mr.minimax_fit_lp(mr.Dataset(reduced, y_pairs[idx]))

    constants = evt.norming_constants(plain.model, n)
    delta, theta = closed_form_batch(V, y_max, y_min)
    delta_scaled = 2.0 * constants.b * (delta - constants.a)
    theta_scaled = 2.0 * constants.b * (theta - plain.true_theta)
    law = mr.LimitLaw("qpower", plain.model.attraction, q=plain.q)

    def reference_ks():
        simulation._detlaw_ks(plain, n, {"lp": theta_scaled, "closed_form": theta_scaled})

    report = simulation.run_experiment(plain)
    outdir = tempfile.mkdtemp(prefix="bench-engine-")

    def ecdf_write():
        for path, text in cli._ecdf_outputs(report, os.path.join(outdir, "r"), 4096).items():
            atomic_write_text(path, text)

    stages = {
        "level_extremes": lambda: simulation._level_extremes(plain, n, range(m)),
        "level_extremes_lse": lambda: simulation._level_extremes(with_lse, n, range(m)),
        "lp_loop": lp_loop,
        "closed_form_batch": lambda: closed_form_batch(V, y_max, y_min),
        "limit_cdf": lambda: evt.limit_cdf(law, delta_scaled),
        "reference_ks": reference_ks,
        "ecdf_write": ecdf_write,
        "run_experiment": lambda: simulation.run_experiment(plain),
    }
    record = {stage: {"times": _time(fn, stage), "peak_mb": _peak_mb(fn)}
              for stage, fn in stages.items()}
    for name in os.listdir(outdir):
        os.unlink(os.path.join(outdir, name))
    os.rmdir(outdir)
    return record


def run_cell(src: str, family: str, alpha) -> dict:
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    env.pop("PYTHONPATH", None)
    args = [sys.executable, os.path.abspath(__file__), "--worker", "--src", src,
            "--family", family]
    if alpha is not None:
        args += ["--alpha", str(alpha)]
    proc = subprocess.run(args, capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy as np

    return {"platform": platform.platform(), "processor": platform.processor(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": 1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="source tree holding minimaxreg/")
    ap.add_argument("--parent-src", help="source tree of the parent, for before numbers")
    ap.add_argument("--labels", nargs=2, default=("change", "parent"), metavar=("CHANGE", "PARENT"),
                    help="names of the two trees in the output, e.g. their commits")
    ap.add_argument("--out", help="write the JSON here instead of stdout")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--family", help=argparse.SUPPRESS)
    ap.add_argument("--alpha", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.src, args.family, args.alpha)))
        return 0

    trees = {"change": args.src}
    if args.parent_src:
        trees["parent"] = args.parent_src
    cells = []
    for family, alpha in FAMILIES:
        times = {tree: {} for tree in trees}
        peaks = {tree: {} for tree in trees}
        for round_ in range(ROUNDS):
            for tree in (list(trees) if round_ % 2 == 0 else list(trees)[::-1]):
                for stage, rec in run_cell(trees[tree], family, alpha).items():
                    times[tree].setdefault(stage, []).extend(rec["times"])
                    peaks[tree].setdefault(stage, []).append(rec["peak_mb"])
        cell = {"family": family, "alpha": alpha}
        for tree, stages in times.items():
            cell[tree] = {stage: _summary(stage, ts, peaks[tree][stage])
                          for stage, ts in stages.items()}
        if args.parent_src:
            cell["speedup"] = {stage: round(cell["parent"][stage]["ms"] / rec["ms"], 3)
                               for stage, rec in cell["change"].items()}
        print(json.dumps(cell), file=sys.stderr)
        cells.append(cell)
    out = {
        "what": "Monte Carlo engine stages at the example-3 shape: median ms per call "
                "by family, with quartiles, and the tracemalloc peak MB of one call",
        "trees": {"change": args.labels[0], "parent": args.labels[1] if args.parent_src else None},
        "shape": SHAPE,
        "rounds": ROUNDS,
        "min_runs_per_stage_and_round": RUNS,
        "min_seconds_per_stage_and_round": MIN_SECONDS,
        "min_runs_per_slow_stage_and_round": SLOW_RUNS,
        "machine": machine(),
        "cells": cells,
    }
    text = json.dumps(out, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
