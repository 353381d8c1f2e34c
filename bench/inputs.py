"""Seeded input generation for the benchmark workloads.

Everything the program later receives (experiment configs, CSV files and
plain datasets) is written here, before any timing starts, from the
workload seed alone: the same seed gives byte-identical inputs. Only numpy
is used, so this module never imports the package under test.
"""

from __future__ import annotations

import os

import numpy as np

WORKLOADS = ("sim-square", "sim-bign", "fit-lp-plain", "fit-csv")

# Full-size shapes, and the tiny shapes the smoke test runs. The sim sizes are
# ROADMAP example 3 (sim-square) and its large-n gaussian counterpart.
SIZES = {
    "full": {
        "sim-square": {"n": 2000, "m": 2000, "reference_draws": 1_000_000},
        "sim-bign": {"n": 50_000, "m": 300, "reference_draws": 1_000_000},
        "fit-lp-plain": {"rows": 100_000, "datasets": 8},
        "fit-csv": {"rows": 100_000, "datasets": 4},
    },
    "smoke": {
        "sim-square": {"n": 100, "m": 20, "reference_draws": 2000},
        "sim-bign": {"n": 500, "m": 20, "reference_draws": 2000},
        "fit-lp-plain": {"rows": 1000, "datasets": 2},
        "fit-csv": {"rows": 1000, "datasets": 2},
    },
}

SIM_SPECS = {
    "sim-square": {"family": "uniform", "methods": "lp closed_form"},
    "sim-bign": {"family": "gaussian", "methods": "lp closed_form lse"},
}

# Regressor count of the plain-design workloads: an intercept plus four
# continuous regressors.
PLAIN_Q = 5

# Shape of the tiny call that warms a fresh interpreter up before timing.
WARMUP = {"n": 50, "m": 10, "reference_draws": 1000, "rows": 200}


def _streams(seed: int, count: int) -> list:
    children = np.random.SeedSequence(int(seed)).spawn(count)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def _config_text(family: str, methods: str, n: int, m: int, reference_draws: int,
                 master_seed: int) -> str:
    return (
        "[experiment]\n"
        f"family = {family}\n"
        "v = 1 0 ; 1 1\n"
        f"n = {n}\n"
        f"m = {m}\n"
        f"seed = {master_seed}\n"
        "theta = 1.0 2.0\n"
        f"methods = {methods}\n"
        f"reference_draws = {reference_draws}\n"
        "jobs = 1\n"
    )


def plain_dataset(rng: np.random.Generator, rows: int):
    """Intercept plus uniform regressors, seeded coefficients, gaussian noise."""
    X = np.empty((rows, PLAIN_Q))
    X[:, 0] = 1.0
    X[:, 1:] = rng.random((rows, PLAIN_Q - 1))
    theta = rng.normal(size=PLAIN_Q)
    y = X @ theta + rng.normal(size=rows)
    return X, y


def _write_csv(path: str, X: np.ndarray, y: np.ndarray) -> None:
    header = ",".join([f"x{i + 1}" for i in range(X.shape[1])] + ["y"])
    np.savetxt(path, np.column_stack([X, y]), fmt="%.9g", delimiter=",",
               header=header, comments="")


def generate(workload: str, seed: int, size: str, workdir: str) -> dict:
    """Write the workload's inputs under ``workdir`` and describe them.

    The returned manifest holds only paths and plain numbers; it is what the
    worker and the set-up probes receive.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    shape = SIZES[size][workload]
    os.makedirs(workdir, exist_ok=True)
    streams = _streams(seed, 1 + shape.get("datasets", 0))
    warm = streams[0]
    manifest = {"workload": workload, "seed": int(seed), "size": size, "shape": shape}
    if workload in SIM_SPECS:
        spec = SIM_SPECS[workload]
        master_seed, warm_seed = (int(s) for s in warm.integers(0, 2**31 - 1, size=2))
        manifest["config"] = os.path.join(workdir, "experiment.cfg")
        manifest["warmup_config"] = os.path.join(workdir, "warmup.cfg")
        with open(manifest["config"], "w") as fh:
            fh.write(_config_text(spec["family"], spec["methods"], shape["n"], shape["m"],
                                  shape["reference_draws"], master_seed))
        with open(manifest["warmup_config"], "w") as fh:
            fh.write(_config_text(spec["family"], spec["methods"], WARMUP["n"], WARMUP["m"],
                                  WARMUP["reference_draws"], warm_seed))
        manifest["methods"] = spec["methods"].split()
        return manifest

    datasets = [plain_dataset(rng, shape["rows"]) for rng in streams[1:]]
    warm_X, warm_y = plain_dataset(warm, WARMUP["rows"])
    if workload == "fit-lp-plain":
        manifest["datasets"] = []
        for i, (X, y) in enumerate(datasets):
            path = os.path.join(workdir, f"plain{i}.npz")
            np.savez(path, X=X, y=y)
            manifest["datasets"].append(path)
        manifest["warmup_dataset"] = os.path.join(workdir, "warmup.npz")
        np.savez(manifest["warmup_dataset"], X=warm_X, y=warm_y)
    else:
        manifest["csvs"] = []
        for i, (X, y) in enumerate(datasets):
            path = os.path.join(workdir, f"plain{i}.csv")
            _write_csv(path, X, y)
            manifest["csvs"].append(path)
        manifest["warmup_csv"] = os.path.join(workdir, "warmup.csv")
        _write_csv(manifest["warmup_csv"], warm_X, warm_y)
    return manifest
