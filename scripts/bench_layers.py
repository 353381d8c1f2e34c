"""Time a layer of minimaxreg under one source tree, or under two: before and after a change.

Usage:
    python3 scripts/bench_layers.py engine --src src --parent-src PARENT/src \
        --out BENCH_engine.json
    python3 scripts/bench_layers.py lp-plain --src src --parent-src PARENT/src \
        --out BENCH_lp_plain.json
    python3 scripts/bench_layers.py import --src src --parent-src PARENT/src \
        --out BENCH_import.json
    python3 scripts/bench_layers.py fit --src src --parent-src PARENT/src \
        --out BENCH_fit.json

Every measurement runs in a fresh child started by ``run_record``: an
interpreter with the tree alone on PYTHONPATH and BLAS on one thread, pinned
to the lowest CPU this process may use. A child refuses to run unless it
imported ``minimaxreg`` from its tree, and a tree with no
``minimaxreg/__init__.py`` is refused before anything runs. The trees
alternate which runs first from one round or cell to the next, so drift on
a shared host falls on both alike. With two trees, each cell's ``speedup``
is the parent's ``ms`` over the change's, stage by stage where the cell has
stages, and null where a side has no ``ms``.

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
``minflt_per_call`` is the median over the rounds of the minor page faults
per timed call, read from ``getrusage(RUSAGE_SELF).ru_minflt`` around the
timed calls, so it counts the worker's own process alone.

``lp-plain`` times one ``minimax_fit_lp`` on seeded plain designs (an
intercept, uniform regressors, gaussian noise) by (N, q). Each (tree, N, q)
cell runs ROUNDS workers. Every fit starts with the LP's start cache
cleared, so it pays what one call on new data pays. A worker counts what
the simplex does in its first fit, then times its fits as the engine's
stages are timed: one untimed fit, then at least RUNS fits and MIN_SECONDS
of fitting. A cell reports the first quartile of its milliseconds per fit
over all rounds as ``ms``, the number its speedup compares, with the
median and quartiles beside it. It also reports what the simplex did in
one fit: solves (working-set rounds), the rows of the last solve (the
final working set), the pivots the solves report, the median over the
rounds of the minor page faults per timed fit (``minflt_per_fit``, read as
the engine's are), and the largest peak RSS of the rounds. A cell that runs out of memory is
recorded with its MemoryError instead of timings.

``fit`` times ``minimaxreg fit --method lp`` by layer on the CSVs of the
benchmark's ``fit-csv`` workload (``bench/inputs.py`` at seed FIT_SEED: four
10^5-row plain CSVs, an intercept and four uniform regressors at ``%.9g``).
Each tree runs ROUNDS workers; a worker times, as the engine's do, each of
``cli.read_fit_csv``, ``cli.detect_replication``, ``minimax_fit_lp`` and the
whole ``cli.main(["fit", ...])``, every call on the next CSV in turn. The LP's
start cache is cleared before each LP fit and each ``main`` call, so both pay
what a fresh ``fit`` process pays. The stages are summarized as the engine's.

``import`` times start-up. Each sample is a fresh interpreter, pinned like a
worker, that times itself from its first statement after pinning: a bare
``import minimaxreg``, or ``python -m minimaxreg fit --method lp`` on a
4-row CSV (run as ``-m`` runs it, through ``runpy``, with the CSV written
before the clock starts). Each (tree, sample) cell runs STARTUP_ROUNDS
samples and reports the first quartile of their milliseconds as ``ms``,
with the median and quartiles, and the median and range of each child's
``ru_maxrss`` in MiB.
"""

from __future__ import annotations

import argparse
import itertools
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

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
from machine import BLAS_THREAD_VARS  # noqa: E402

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

FIT_SEED = 7

GRID_N = (1_000, 10_000, 100_000, 1_000_000)
GRID_Q = (2, 5, 10)
SEED = 20151

STARTUP_ROUNDS = 20
# One start-up sample's code: STARTUP_BODIES gives each sample's untimed
# setup and its timed body.
STARTUP_SAMPLE = """\
import os, sys, time
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
{setup}
t0 = time.perf_counter()
{body}
t1 = time.perf_counter()
import json, resource
tree = os.path.realpath(os.environ["PYTHONPATH"])
if not os.path.realpath(sys.modules["minimaxreg"].__file__).startswith(tree + os.sep):
    raise SystemExit("error: imported " + sys.modules["minimaxreg"].__file__ + ", not " + tree)
print(json.dumps({{"times": [t1 - t0],
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}}))
"""
STARTUP_BODIES = {
    "import": ("", "import minimaxreg"),
    "fit": ("open('d.csv', 'w').write('x1,y\\n0,1.0\\n1,2.5\\n2,2.0\\n3,4.0\\n')\n"
            "sys.argv[1:] = ['fit', '--input', 'd.csv', '--method', 'lp', '--output', 'r.json']",
            "import runpy\n"
            "try:\n"
            "    runpy.run_module('minimaxreg', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code"),
}


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


def run_record(src: str, suite: str, params: dict) -> dict:
    """One record of ``suite`` on ``params``, the last line its child prints:
    a start-up sample for ``import``, a ``--worker`` run for the others. The
    child runs in the tree, from a scratch directory."""
    if suite == "import":
        setup, body = STARTUP_BODIES[params["sample"]]
        argv = ["-c", STARTUP_SAMPLE.format(setup=setup, body=body)]
    else:
        argv = [os.path.abspath(__file__), suite, "--worker", json.dumps(params)]
    with tempfile.TemporaryDirectory(prefix="bench-layers-") as workdir:
        proc = run_in_tree(src, argv, cwd=workdir, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pooled_ms(records: list) -> dict:
    """The records' seconds per call pooled over the rounds: their count, and
    their first quartile in milliseconds as ``ms``, with the median and
    quartiles."""
    seconds = [t for r in records for t in r["times"]]
    q1, median, q3 = statistics.quantiles(seconds, n=4)
    return {"runs": len(seconds), "ms": round(1e3 * q1, 3), "ms_median": round(1e3 * median, 3),
            "ms_quartiles": [round(1e3 * q1, 3), round(1e3 * q3, 3)]}


def startup_summary(records: list) -> dict:
    """The samples' times pooled, with the median and range of their peak RSS."""
    rss = [r["maxrss_mb"] for r in records]
    return {**pooled_ms(records), "maxrss_mb_median": round(statistics.median(rss), 1),
            "maxrss_mb_range": [round(min(rss), 1), round(max(rss), 1)]}


def _time(fn, runs: int = RUNS) -> dict:
    """Seconds per call of one round, after an untimed warm-up call, and
    the minor page faults per timed call."""
    fn()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    while len(times) < runs or sum(times) < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"times": times, "minflt_per_call": faults / len(times)}


def time_stages(stages: dict) -> dict:
    """One round of each stage: its ``_time`` record, and ``peak_mb``, the
    tracemalloc peak of one more call in 10^6 bytes."""
    out = {}
    for stage, fn in stages.items():
        out[stage] = _time(fn, SLOW_RUNS.get(stage, RUNS))
        tracemalloc.start()
        fn()
        out[stage]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
    return out


def engine_worker(family: str, alpha) -> dict:
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
        return time_stages(stages)


def stage_summary(records: list) -> dict:
    """Each stage's timings pooled over the rounds, read at the first quartile."""
    out = {}
    for stage in records[0]:
        rounds = [r[stage] for r in records]
        out[stage] = {**pooled_ms(rounds), "peak_mb": round(max(r["peak_mb"] for r in rounds), 3),
                      "minflt_per_call": round(statistics.median(
                          r["minflt_per_call"] for r in rounds), 1)}
        if stage in PER_REPLICATION:
            out[stage]["us_per_replication"] = round(1e3 * out[stage]["ms"] / SHAPE["m"], 2)
    return out


def speedup(parent: dict, change: dict):
    """Parent ms over change ms: the cell's, or each stage's when the cell
    has stages; None when a side has no ``ms`` (a cell out of memory)."""
    if all(isinstance(rec, dict) for rec in change.values()):
        return {stage: speedup(parent[stage], rec) for stage, rec in change.items()}
    return round(parent["ms"] / change["ms"], 3) if "ms" in parent and "ms" in change else None


def fit_worker(seed: int) -> dict:
    import inputs

    import minimaxreg
    from minimaxreg import cli, lp

    with tempfile.TemporaryDirectory(prefix="bench-fit-") as workdir:
        csvs = inputs.generate("fit-csv", seed, "full", workdir)["csvs"]
        data = [cli.read_fit_csv(path) for path in csvs]
        turn = itertools.count()

        def in_turn(fn):
            return lambda: fn(next(turn) % len(csvs))

        def fit_lp(i):
            lp._cached_dual_system.cache_clear()
            minimaxreg.minimax_fit_lp(minimaxreg.Dataset(minimaxreg.Design(data[i][0]), data[i][1]))

        def fit_main(i):
            lp._cached_dual_system.cache_clear()
            code = cli.main(["fit", "--input", csvs[i], "--method", "lp",
                             "--output", os.path.join(workdir, "report.json")])
            assert code == 0, code

        stages = {
            "read_fit_csv": in_turn(lambda i: cli.read_fit_csv(csvs[i])),
            "detect_replication": in_turn(lambda i: cli.detect_replication(*data[i])),
            "minimax_fit_lp": in_turn(fit_lp),
            "cli_main_fit": in_turn(fit_main),
        }
        return time_stages(stages)


def lp_plain_worker(n: int, q: int) -> dict:
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

    def counted(A, b, c, **kwargs):
        res = solve(A, b, c, **kwargs)
        solves.append((A.shape[1] // 2, res.iterations))
        return res

    # The first fit of a fresh process finds the start cache empty.
    simplex.solve_standard_form = counted
    try:
        first = minimaxreg.minimax_fit_lp(dataset)
    except MemoryError as exc:
        return {"memory_error": str(exc) or "MemoryError",
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    simplex.solve_standard_form = solve

    def fit():
        lp._cached_dual_system.cache_clear()
        minimaxreg.minimax_fit_lp(dataset)

    return {"rounds": len(solves), "final_set_rows": solves[-1][0],
            "pivots": sum(p for _, p in solves), "delta_hat": first.delta_hat, **_time(fit),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def lp_plain_summary(records: list) -> dict:
    """One fit's simplex counts, with the fit times pooled over the rounds
    and read at the first quartile."""
    peak = round(max(r["peak_rss_mb"] for r in records), 1)
    failed = [r for r in records if "memory_error" in r]
    if failed:
        return {"memory_error": failed[0]["memory_error"], "peak_rss_mb": peak}
    counts = {key: records[0][key] for key in ("rounds", "final_set_rows", "pivots", "delta_hat")}
    return {**counts, **pooled_ms(records),
            "minflt_per_fit": round(statistics.median(r["minflt_per_call"] for r in records), 1),
            "peak_rss_mb": peak}


SUITES = {
    "engine": {
        "cells": [{"family": family, "alpha": alpha} for family, alpha in FAMILIES],
        "worker": engine_worker,
        "summary": stage_summary,
        "header": {
            "what": "Monte Carlo engine stages at the example-3 shape: first-quartile ms per "
                    "call by family, with the median and quartiles, the tracemalloc peak "
                    "MB of one call and the median minor page faults per call",
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
        "summary": lp_plain_summary,
        "header": {
            "what": "minimax_fit_lp on seeded plain designs, start cache cleared before "
                    "each fit: first-quartile ms per fit by (N, q), with the median and "
                    "quartiles, the simplex's solves, final rows and pivots in one fit, and the "
                    "median minor page faults per fit",
            "rounds": ROUNDS,
            "min_runs_per_cell_and_round": RUNS,
            "min_seconds_per_cell_and_round": MIN_SECONDS,
            "seed": SEED,
        },
    },
    "fit": {
        "cells": [{"seed": FIT_SEED}],
        "worker": fit_worker,
        "summary": stage_summary,
        "header": {
            "what": "minimaxreg fit --method lp by layer on the fit-csv workload's four "
                    "10^5-row CSVs, taken in turn: first-quartile ms per call, with the "
                    "median and quartiles, the tracemalloc peak MB of one call and the "
                    "median minor page faults per call",
            "rounds": ROUNDS,
            "min_runs_per_stage_and_round": RUNS,
            "min_seconds_per_stage_and_round": MIN_SECONDS,
        },
    },
    "import": {
        "cells": [{"sample": sample} for sample in STARTUP_BODIES],
        "summary": startup_summary,
        "header": {
            "what": "start-up of a fresh interpreter: first-quartile ms of `import minimaxreg` "
                    "and of `python -m minimaxreg fit --method lp` on a 4-row CSV, with the "
                    "median and quartiles, and the median and range of each child's ru_maxrss",
            "rounds": STARTUP_ROUNDS,
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
    return {"platform": platform.platform(), "processor": platform.processor(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": 1, "pinned_cpu": min(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("suite", choices=SUITES,
                    help="engine stages, plain-design LP fits, fit stages, or start-up")
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
    sources = {"change": args.src, "parent": args.parent_src}
    trees = {tree: tree_path(src) for tree, src in sources.items() if src}
    cells = []
    for index, params in enumerate(suite["cells"]):
        records = {tree: [] for tree in trees}
        for round_ in range(suite["header"]["rounds"]):
            # Alternate which tree runs first, so drift on a shared host falls on both alike.
            for tree in list(trees)[::1 if (index + round_) % 2 == 0 else -1]:
                records[tree].append(run_record(trees[tree], args.suite, params))
        cell = {**params, **{tree: suite["summary"](recs) for tree, recs in records.items()}}
        if args.parent_src:
            cell["speedup"] = speedup(cell["parent"], cell["change"])
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
