"""Smoke test of the benchmark at tiny sizes, so it cannot rot.

Run with:  python3 -m pytest bench/test_bench.py -q

Every workload runs untraced and traced at the 'smoke' size. The test
asserts that each metric listed in BENCHMARK.json is emitted with its unit,
that every output check passes, that the trace counts repeat exactly, and
that the benchmark refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("sim-square", "sim-bign", "fit-lp-plain", "fit-csv")

# Per-layer metrics that are counts of work, not times: equal inputs must
# give them exactly, run after run.
COUNTS = (
    "simulation.ks_distance.calls", "lp.minimax_fit_lp.calls", "lp.nonunique_frac",
    "simplex.solve_standard_form.calls", "simplex.pivots", "simplex.pivots_per_solve",
    "simplex.priced_mb", "closed_form.closed_form_fit.calls", "closed_form.lse_fit.calls",
    "evt.sample.draws", "evt.sample_attraction.draws", "evt.limit_cdf.points",
    "model.max_abs_residual.calls", "model.matrix.calls", "model.matrix.mb",
    "simulation.failures", "report_io.bytes",
)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, root=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert set(COUNTS) <= {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = _result(_run(workload, 0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_repeats_counts(workload):
    first = _result(_run(workload, 1))
    second = _result(_run(workload, 1))
    assert first["correct"] is True and second["correct"] is True
    want = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["lp.minimax_fit_lp.calls"]["value"] > 0
    assert first["metrics"]["simplex.pivots"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run("fit-lp-plain", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
