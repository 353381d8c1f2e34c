"""Time one plain-design LP fit by (N, q), before and after a change.

Usage:
    python3 scripts/bench_lp_plain.py --src src --parent-src PARENT/src \
        --out BENCH_lp_plain.json

Each (source tree, N, q) cell runs in a fresh interpreter with BLAS on one
thread, imports ``minimaxreg`` from the given tree, fits seeded plain designs
(an intercept, uniform regressors, gaussian noise) with ``minimax_fit_lp``
after one untimed warm-up fit, and reports the median and quartiles of the
milliseconds per fit over at least RUNS fits and MIN_SECONDS of fitting.
It also reports what the simplex did in one fit, read by wrapping
``simplex.solve_standard_form``: solves (working-set rounds), the rows of
the last solve (the final working set) and pivots, and the cell's peak RSS.
Every cell of both trees runs; one that runs out of memory is recorded with
its MemoryError instead of timings.
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
import time

GRID_N = (1_000, 10_000, 100_000, 1_000_000)
GRID_Q = (2, 5, 10)
RUNS = 5
MIN_SECONDS = 1.0
SEED = 20151
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker(src: str, n: int, q: int) -> dict:
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    import minimaxreg
    from minimaxreg import simplex

    rng = np.random.default_rng(np.random.SeedSequence([SEED, n, q]))
    X = np.empty((n, q))
    X[:, 0] = 1.0
    X[:, 1:] = rng.random((n, q - 1))
    y = X @ rng.normal(size=q) + rng.normal(size=n)
    dataset = minimaxreg.Dataset(minimaxreg.Design(X), y)

    solves = []
    solve = simplex.solve_standard_form

    def counted(A, b, c, **kwargs):
        res = solve(A, b, c, **kwargs)
        solves.append((A.shape[1] // 2, res.iterations))
        return res

    simplex.solve_standard_form = counted
    try:
        fit = minimaxreg.minimax_fit_lp(dataset)
    except MemoryError as exc:
        return {"memory_error": str(exc) or "MemoryError",
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    record = {"rounds": len(solves), "final_set_rows": solves[-1][0],
              "pivots": sum(p for _, p in solves), "delta_hat": fit.delta_hat}
    times = []
    while len(times) < RUNS or sum(times) < MIN_SECONDS:
        t0 = time.perf_counter()
        minimaxreg.minimax_fit_lp(dataset)
        times.append(time.perf_counter() - t0)
    q1, median, q3 = statistics.quantiles(times, n=4)
    record["runs"] = len(times)
    record["ms_per_fit"] = 1e3 * median
    record["ms_quartiles"] = [round(1e3 * q1, 3), round(1e3 * q3, 3)]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def run_cell(src: str, n: int, q: int) -> dict:
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", "--src", src,
         "--n", str(n), "--q", str(q)],
        capture_output=True, text=True, env=env, check=True)
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
    ap.add_argument("--n", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--q", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.src, args.n, args.q)))
        return 0

    cells = []
    for n in GRID_N:
        for q in GRID_Q:
            cell = {"n": n, "q": q, "change": run_cell(args.src, n, q)}
            if args.parent_src:
                cell["parent"] = run_cell(args.parent_src, n, q)
                if "ms_per_fit" in cell["parent"] and "ms_per_fit" in cell["change"]:
                    cell["speedup"] = cell["parent"]["ms_per_fit"] / cell["change"]["ms_per_fit"]
            print(json.dumps(cell), file=sys.stderr)
            cells.append(cell)
    out = {
        "what": "minimax_fit_lp on seeded plain designs: median ms per fit by (N, q), "
                "with the simplex's solves, final rows and pivots in one fit",
        "trees": {"change": args.labels[0], "parent": args.labels[1] if args.parent_src else None},
        "min_runs_per_cell": RUNS,
        "min_seconds_per_cell": MIN_SECONDS,
        "seed": SEED,
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
