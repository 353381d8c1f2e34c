"""scripts/bench_layers.py end to end at its smallest: each suite run here
writes the document keys of its committed BENCH file, and one speedup rule
reads every committed cell."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers",
                                                  ROOT / "scripts" / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def keys(doc):
    """The document's top-level keys, its first cell's, and each tree's summary keys."""
    cell = doc["cells"][0]
    return sorted(doc), sorted(cell), {tree: sorted(cell[tree]) for tree in ("change", "parent")}


# Two rounds of start-up samples, since a tree's quartiles need two samples;
# one lp-plain round already times many fits.
@pytest.mark.parametrize("suite, committed, rounds, cells", [
    ("import", "BENCH_import.json", 2, None),
    ("lp-plain", "BENCH_lp_plain.json", 1, [{"n": 1000, "q": 2}]),
])
def test_suite_writes_the_committed_keys(bench_layers, monkeypatch, tmp_path, suite, committed,
                                         rounds, cells):
    monkeypatch.setitem(bench_layers.SUITES[suite]["header"], "rounds", rounds)
    if cells is not None:
        monkeypatch.setitem(bench_layers.SUITES[suite], "cells", cells)
    out = tmp_path / "bench.json"
    code = bench_layers.main([suite, "--src", str(SRC), "--parent-src", str(SRC),
                              "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert keys(doc) == keys(json.loads((ROOT / committed).read_text()))
    assert doc["rounds"] == rounds
    for cell in doc["cells"]:
        assert cell["change"]["runs"] >= rounds and cell["speedup"] > 0.0


@pytest.mark.parametrize("committed", ["BENCH_engine.json", "BENCH_fit.json", "BENCH_import.json",
                                       "BENCH_lp_plain.json"])
def test_speedup_reproduces_every_committed_cell(bench_layers, committed):
    # Engine and fit cells have stages; lp-plain and import cells do not.
    for cell in json.loads((ROOT / committed).read_text())["cells"]:
        assert bench_layers.speedup(cell["parent"], cell["change"]) == cell["speedup"]


def test_speedup_of_a_cell_out_of_memory_is_none(bench_layers):
    failed = {"memory_error": "MemoryError", "peak_rss_mb": 812.0}
    timed = {"rounds": 2, "ms": 4.0, "ms_quartiles": [4.0, 5.0], "peak_rss_mb": 90.0}
    assert bench_layers.speedup(failed, timed) is None
    assert bench_layers.speedup(timed, failed) is None
    assert bench_layers.speedup(timed, dict(timed, ms=2.0)) == 2.0
