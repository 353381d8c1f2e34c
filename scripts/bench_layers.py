"""Time a layer of minimaxreg under one source tree, or under two: before and after a change.

Usage:
    python3 scripts/bench_layers.py engine --src src --parent-src PARENT/src \
        --out BENCH_engine.json
    python3 scripts/bench_layers.py lp-plain --src src --parent-src PARENT/src \
        --out BENCH_lp_plain.json

Every measurement runs in a fresh worker started by ``run_in_tree``: an
interpreter with the tree alone on PYTHONPATH and BLAS on one thread, pinned
to the lowest CPU this process may use. A worker refuses to run unless it
imported ``minimaxreg`` from its tree, and a tree with no
``minimaxreg/__init__.py`` is refused before anything runs. The trees
alternate which runs first from one round or cell to the next, so drift on
a shared host falls on both alike.

``engine`` times the Monte Carlo engine's stages at ROADMAP example 3:
levels V = [[1, 0], [1, 1]], theta = (1, 2), n = 2000 and m = 2000
replications, 10^6 reference draws. Each (tree, family) cell runs ROUNDS
workers. After one untimed warm-up of each stage a worker times, over at
least RUNS calls (SLOW_RUNS for the stages that take seconds on some
families) and MIN_SECONDS:

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

Every stage reports the first quartile of its milliseconds per call over
all rounds as ``ms``, the number its speedup compares, with the median and
quartiles beside it. Noise on a shared host slows calls and never speeds
them up, so the lower quartile is the steadier reading: on two identical
trees it agreed within 0.96-1.06x on every (family, stage) cell, where the
median read 0.69-1.23x. The first two stages and the LP loop also report
microseconds per replication, from the first quartile. ``peak_mb`` is the
``tracemalloc`` peak of one more, untimed call: the most memory its
allocations held at once, in 10^6 bytes, the largest over the rounds.

``lp-plain`` times one ``minimax_fit_lp`` on seeded plain designs (an
intercept, uniform regressors, gaussian noise) by (N, q), one worker per
(tree, N, q) cell. Every fit starts with the phase-1 cache cleared, so it
pays what one call on new data pays. After one untimed fit, a worker reports
the median and quartiles of the milliseconds per fit over at least RUNS
fits and MIN_SECONDS of fitting. It also reports what the simplex did in
one fit: solves (working-set rounds), the rows of the last solve (the final
working set), pivots of both phases, and the cell's peak RSS. A cell that
runs out of memory is recorded with its MemoryError instead of timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

FAMILIES = (("uniform_symmetric", None), ("laplace", None), ("bounded_power", 1.5),
            ("pareto_symmetric", 2.5), ("gaussian", None))
SHAPE = {"levels": [[1.0, 0.0], [1.0, 1.0]], "theta": [1.0, 2.0], "n": 2000, "m": 2000,
         "reference_draws": 1_000_000, "master_seed": 20151}
ROUNDS = 10
RUNS = 5
MIN_SECONDS = 0.5
# Fewest calls per round of the stages that take seconds on some families:
# the whole engine call and the quadrature behind the qpower law.
SLOW_RUNS = {"run_experiment": 2, "limit_cdf": 2}
PER_REPLICATION = ("level_extremes", "level_extremes_lse", "lp_loop")

GRID_N = (1_000, 10_000, 100_000, 1_000_000)
GRID_Q = (2, 5, 10)
LP_MIN_SECONDS = 1.0
SEED = 20151


def tree_path(src: str) -> str:
    """``src`` as an absolute path; exits unless it holds the package."""
    src = os.path.abspath(src)
    if not os.path.isfile(os.path.join(src, "minimaxreg", "__init__.py")):
        raise SystemExit(f"error: {src} holds no minimaxreg/__init__.py")
    return src


def run_in_tree(src: str, argv: list, **kwargs) -> subprocess.CompletedProcess:
    """``python argv`` in a fresh interpreter that imports minimaxreg from
    ``src`` alone, with BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=tree_path(src), **{var: "1" for var in BLAS_THREAD_VARS})
    return subprocess.run([sys.executable, *argv], env=env, **kwargs)


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
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1e6


def engine_worker(family: str, alpha) -> dict:
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

    with tempfile.TemporaryDirectory(prefix="bench-engine-") as outdir:
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
        return {stage: {"times": _time(fn, stage), "peak_mb": _peak_mb(fn)}
                for stage, fn in stages.items()}


def engine_summary(records: list) -> dict:
    """Each stage's timings pooled over the rounds, read at the first quartile."""
    out = {}
    for stage in records[0]:
        q1, median, q3 = statistics.quantiles([t for r in records for t in r[stage]["times"]], n=4)
        out[stage] = {"runs": sum(len(r[stage]["times"]) for r in records),
                      "ms": round(1e3 * q1, 3),
                      "ms_median": round(1e3 * median, 3),
                      "ms_quartiles": [round(1e3 * q1, 3), round(1e3 * q3, 3)],
                      "peak_mb": round(max(r[stage]["peak_mb"] for r in records), 3)}
        if stage in PER_REPLICATION:
            out[stage]["us_per_replication"] = round(1e6 * q1 / SHAPE["m"], 2)
    return out


def lp_plain_worker(n: int, q: int) -> dict:
    import numpy as np

    import minimaxreg
    from minimaxreg import lp, simplex

    rng = np.random.default_rng(np.random.SeedSequence([SEED, n, q]))
    X = np.empty((n, q))
    X[:, 0] = 1.0
    X[:, 1:] = rng.random((n, q - 1))
    y = X @ rng.normal(size=q) + rng.normal(size=n)
    dataset = minimaxreg.Dataset(minimaxreg.Design(X), y)

    solves = []
    solve = simplex.solve_standard_form

    def counted(A, b, c, *, start=None, **kwargs):
        res = solve(A, b, c, start=start, **kwargs)
        # A cold solve counts its phase 1 in res.iterations; a solve from a
        # start does not, so add the start's phase-1 pivots (0 for a start
        # at a working set's last basis).
        solves.append((A.shape[1] // 2, res.iterations + getattr(start, "iterations", 0)))
        return res

    # The first fit of a fresh process finds the phase-1 cache empty.
    simplex.solve_standard_form = counted
    try:
        first = minimaxreg.minimax_fit_lp(dataset)
    except MemoryError as exc:
        return {"memory_error": str(exc) or "MemoryError",
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    simplex.solve_standard_form = solve
    record = {"rounds": len(solves), "final_set_rows": solves[-1][0],
              "pivots": sum(p for _, p in solves), "delta_hat": first.delta_hat}
    times = []
    while len(times) < RUNS or sum(times) < LP_MIN_SECONDS:
        lp._cached_dual_system.cache_clear()
        t0 = time.perf_counter()
        minimaxreg.minimax_fit_lp(dataset)
        times.append(time.perf_counter() - t0)
    q1, median, q3 = statistics.quantiles(times, n=4)
    record.update(runs=len(times), ms_per_fit=1e3 * median,
                  ms_quartiles=[round(1e3 * q1, 3), round(1e3 * q3, 3)],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return record


SUITES = {
    "engine": {
        "cells": [{"family": family, "alpha": alpha} for family, alpha in FAMILIES],
        "worker": engine_worker,
        "summary": engine_summary,
        "speedup": lambda parent, change: {
            stage: round(parent[stage]["ms"] / rec["ms"], 3) for stage, rec in change.items()},
        "header": {
            "what": "Monte Carlo engine stages at the example-3 shape: first-quartile ms per "
                    "call by family, with the median and quartiles, and the tracemalloc peak "
                    "MB of one call",
            "shape": SHAPE,
            "rounds": ROUNDS,
            "min_runs_per_stage_and_round": RUNS,
            "min_seconds_per_stage_and_round": MIN_SECONDS,
            "min_runs_per_slow_stage_and_round": SLOW_RUNS,
        },
    },
    "lp-plain": {
        "cells": [{"n": n, "q": q} for n in GRID_N for q in GRID_Q],
        "worker": lp_plain_worker,
        "summary": lambda records: records[0],
        "speedup": lambda parent, change: (
            parent["ms_per_fit"] / change["ms_per_fit"]
            if "ms_per_fit" in parent and "ms_per_fit" in change else None),
        "header": {
            "what": "minimax_fit_lp on seeded plain designs, phase-1 cache cleared before "
                    "each fit: median ms per fit by (N, q), with the simplex's solves, "
                    "final rows and pivots of both phases in one fit",
            "min_runs_per_cell": RUNS,
            "min_seconds_per_cell": LP_MIN_SECONDS,
            "seed": SEED,
        },
    },
}


def worker_main(suite: str, cell: dict) -> dict:
    """One worker's record, after pinning it to one CPU and checking that
    ``minimaxreg`` came from the tree on PYTHONPATH."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import minimaxreg

    tree = os.path.realpath(os.environ["PYTHONPATH"])
    if os.path.dirname(os.path.dirname(os.path.realpath(minimaxreg.__file__))) != tree:
        raise SystemExit(f"error: imported {minimaxreg.__file__}, not the package in {tree}")
    return SUITES[suite]["worker"](**cell)


def machine() -> dict:
    import numpy as np

    return {"platform": platform.platform(), "processor": platform.processor(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": 1, "pinned_cpu": min(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("suite", choices=SUITES, help="engine stages, or plain-design LP fits")
    ap.add_argument("--src", help="source tree holding minimaxreg/ (required)")
    ap.add_argument("--parent-src", help="source tree of the parent, for before numbers")
    ap.add_argument("--labels", nargs=2, default=("change", "parent"), metavar=("CHANGE", "PARENT"),
                    help="names of the two trees in the output, e.g. their commits")
    ap.add_argument("--out", help="write the JSON here instead of stdout")
    ap.add_argument("--worker", metavar="CELL", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(worker_main(args.suite, json.loads(args.worker))))
        return 0
    if args.src is None:
        ap.error("--src is required")

    suite = SUITES[args.suite]
    trees = {"change": tree_path(args.src)}
    if args.parent_src:
        trees["parent"] = tree_path(args.parent_src)
    cells = []
    for index, params in enumerate(suite["cells"]):
        records = {tree: [] for tree in trees}
        for round_ in range(suite["header"].get("rounds", 1)):
            # Alternate which tree runs first, so drift on a shared host falls on both alike.
            for tree in list(trees)[::1 if (index + round_) % 2 == 0 else -1]:
                proc = run_in_tree(trees[tree], [os.path.abspath(__file__), args.suite,
                                                 "--worker", json.dumps(params)],
                                   capture_output=True, text=True, check=True)
                records[tree].append(json.loads(proc.stdout.strip().splitlines()[-1]))
        cell = {**params, **{tree: suite["summary"](recs) for tree, recs in records.items()}}
        if args.parent_src:
            cell["speedup"] = suite["speedup"](cell["parent"], cell["change"])
        print(json.dumps(cell), file=sys.stderr)
        cells.append(cell)
    header = dict(suite["header"])
    out = {"what": header.pop("what"),
           "trees": {"change": args.labels[0], "parent": args.labels[1] if args.parent_src else None},
           **header, "machine": machine(), "cells": cells}
    text = json.dumps(out, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
