"""The timed operation and the output checks of each workload.

Imported only after ``minimaxreg`` is, so importing this module never adds
to a measured import time. Each workload drives the package through its
public entry points: ``minimaxreg.cli.main`` in-process, or
``minimaxreg.minimax_fit_lp``. Checks run outside the timed calls.
"""

from __future__ import annotations

import glob
import hashlib
import io
import json
import os

import numpy as np

import minimaxreg
from minimaxreg import cli

from inputs import SIM_SPECS

GAP_TOL = 1e-8
ECDF_TOL = 1e-8
RESIDUAL_REL_TOL = 1e-9


def _load_dataset(path: str):
    with np.load(path) as data:
        return minimaxreg.Dataset(minimaxreg.Design(data["X"]), data["y"])


def warmup_call(manifest: dict, workdir: str):
    """The workload's tiny warm-up call, with its input already loaded."""
    out = os.path.join(workdir, "warmup.json")
    if manifest["workload"] == "fit-lp-plain":
        dataset = _load_dataset(manifest["warmup_dataset"])
        return lambda: minimaxreg.minimax_fit_lp(dataset)
    if manifest["workload"] == "fit-csv":
        argv = ["fit", "--input", manifest["warmup_csv"], "--method", "lp", "--output", out]
    else:
        argv = ["simulate", "--config", manifest["warmup_config"], "--output", out]

    def run():
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"warm-up {argv[0]} exited with code {code}")

    return run


class SimWorkload:
    """``minimaxreg simulate`` on the generated config.

    One call runs ``m`` replications; an operation is one replication,
    including its share of writing the report and ECDF files.
    """

    def __init__(self, manifest: dict, workdir: str):
        self.config = manifest["config"]
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir, exist_ok=True)
        self.report = os.path.join(self.outdir, "report.json")
        self.inputs = 1
        self.ops_per_call = manifest["shape"]["m"]
        self.fits_per_call = self.ops_per_call * len(manifest["methods"])
        self.digest = None
        self.failed = 0

    def call(self, index: int) -> int:
        return cli.main(["simulate", "--config", self.config, "--output", self.report])

    def _outputs(self) -> dict:
        stem = self.report[: -len(".json")]
        paths = [self.report] + sorted(glob.glob(stem + ".n*.ecdf.tsv"))
        out = {}
        for path in paths:
            with open(path, "rb") as fh:
                out[os.path.basename(path)] = fh.read()
        return out

    def check(self, index: int, code: int) -> list:
        """Problems with this call's outputs; an empty list means it passed."""
        if code != 0:
            self.failed += self.fits_per_call
            return [f"simulate exited with code {code}"]
        files = self._outputs()
        digest = hashlib.sha256(b"".join(
            name.encode() + b"\0" + body for name, body in files.items())).hexdigest()
        problems = []
        if self.digest is None:
            self.digest = digest
            problems += self._check_report(files)
        elif digest != self.digest:
            problems.append("simulate outputs differ between calls with one seed")
        report = json.loads(files["report.json"])
        self.failed += sum(cell["failures"] for entry in report["results"]
                           for cell in entry["methods"].values())
        return problems

    def _check_report(self, files: dict) -> list:
        problems = []
        report = json.loads(files["report.json"])
        bounds = report["bound_checks"]
        for key in ("statement1_violations", "remark3_violations"):
            if bounds[key] != 0:
                problems.append(f"{key} = {bounds[key]}")
        for entry in report["results"]:
            n = entry["n"]
            lp = files.get(f"report.n{n}.lp.delta_scaled.ecdf.tsv")
            cf = files.get(f"report.n{n}.closed_form.delta_scaled.ecdf.tsv")
            if lp is None or cf is None:
                problems.append(f"n={n}: delta_scaled ECDF missing for lp or closed_form")
                continue
            a = np.loadtxt(io.BytesIO(lp), ndmin=2)
            b = np.loadtxt(io.BytesIO(cf), ndmin=2)
            if a.shape != b.shape:
                problems.append(f"n={n}: lp/closed_form ECDF shapes {a.shape} != {b.shape}")
            elif np.abs(a - b).max() > ECDF_TOL:
                problems.append(f"n={n}: lp/closed_form delta_scaled ECDFs differ by "
                                f"{np.abs(a - b).max():.3e} > {ECDF_TOL}")
        return problems


class PlainLpWorkload:
    """Library ``minimax_fit_lp`` on plain datasets; an operation is one fit."""

    def __init__(self, manifest: dict, workdir: str):
        self.datasets = [_load_dataset(path) for path in manifest["datasets"]]
        self.inputs = len(self.datasets)
        self.ops_per_call = 1
        self.fits_per_call = 1
        self.failed = 0

    def call(self, index: int):
        return minimaxreg.minimax_fit_lp(self.datasets[index])

    def check(self, index: int, fit) -> list:
        dataset = self.datasets[index]
        try:
            cert = minimaxreg.dual_certificate(dataset, fit.lp_solution)
        except minimaxreg.MinimaxRegError as exc:
            return [f"dataset {index}: certificate failed: {exc}"]
        problems = []
        if cert.gap > GAP_TOL or cert.max_infeasibility() > GAP_TOL:
            problems.append(f"dataset {index}: certificate gap {cert.gap:.3e}, "
                            f"infeasibility {cert.max_infeasibility():.3e} > {GAP_TOL}")
        return problems


class CsvFitWorkload:
    """``minimaxreg fit --method lp`` on generated plain CSVs; one operation is one call."""

    def __init__(self, manifest: dict, workdir: str):
        self.csvs = manifest["csvs"]
        self.rows = manifest["shape"]["rows"]
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir, exist_ok=True)
        self.inputs = len(self.csvs)
        self.ops_per_call = 1
        self.fits_per_call = 1
        self.failed = 0

    def _report(self, index: int) -> str:
        return os.path.join(self.outdir, f"fit{index}.json")

    def call(self, index: int) -> int:
        return cli.main(["fit", "--input", self.csvs[index], "--method", "lp",
                         "--output", self._report(index)])

    def check(self, index: int, code: int) -> list:
        if code != 0:
            self.failed += 1
            return [f"csv {index}: fit exited with code {code}"]
        with open(self._report(index)) as fh:
            report = json.load(fh)
        problems = []
        gap = report["duality_gap"]
        if gap is None or gap > GAP_TOL:
            problems.append(f"csv {index}: duality_gap {gap} > {GAP_TOL}")
        delta = report["delta_hat"]
        max_abs = report["residual_summary"]["max_abs"]
        if abs(max_abs - delta) > RESIDUAL_REL_TOL * abs(delta):
            problems.append(f"csv {index}: residual max_abs {max_abs!r} != delta_hat {delta!r}")
        if report["n_obs"] != self.rows or report["replicated_design"] is not None:
            problems.append(f"csv {index}: read {report['n_obs']} rows as "
                            f"{report['replicated_design']}, expected {self.rows} plain rows")
        return problems


def make(manifest: dict, workdir: str):
    workload = manifest["workload"]
    if workload in SIM_SPECS:
        return SimWorkload(manifest, workdir)
    if workload == "fit-lp-plain":
        return PlainLpWorkload(manifest, workdir)
    return CsvFitWorkload(manifest, workdir)
