"""Compare the output files of ``simulate`` and ``fit`` under two source trees.

Usage:
    python3 scripts/compare_reports.py --old PARENT/src --new src \
        --config exp.cfg [--config ...] --csv data.csv [--csv ...] \
        [--methods lp,closed,lse] [--workdir DIR]

Every run is a fresh ``python -m minimaxreg`` started by
``bench_layers.run_in_tree``, with one tree alone on PYTHONPATH and BLAS on
one thread: ``simulate --config CFG`` for each config and
``fit --input CSV --method M`` for each CSV and method. A tree with no
``minimaxreg/__init__.py`` is refused before anything runs. Each output is
named by its input's position and file stem (``config2-exp.json``,
``csv1-data.lp.json``), so inputs that share a stem keep their own files.
Then, for every output file either tree wrote, one line: ``identical``;
``only in old`` or ``only in new``; or the largest absolute and relative
difference over the file's floats, with the place and old value of the
largest relative one, the count of floats that moved, named when they are
few, then every integer, string or shape that differs. A run whose exit
code differs between the trees is named too. The exit code is 0 when every file
is identical and every run exited alike, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

from bench_layers import run_in_tree, tree_path

# Moved floats of one file named one by one up to this count.
MAX_NAMED = 8


def _run(src: str, argv: list) -> int:
    return run_in_tree(src, ["-m", "minimaxreg", *argv], stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL).returncode


def _name(kind: str, index: int, path: str) -> str:
    return f"{kind}{index}-{os.path.splitext(os.path.basename(path))[0]}"


def run_tree(src: str, outdir: str, configs: list, csvs: list, methods: list) -> dict:
    """Run every config and CSV under ``src`` into ``outdir``; exit code per run."""
    os.makedirs(outdir, exist_ok=True)
    codes = {}
    for index, cfg in enumerate(configs, 1):
        out = os.path.join(outdir, f"{_name('config', index, cfg)}.json")
        codes[f"simulate {cfg}"] = _run(src, ["simulate", "--config", cfg, "--output", out])
    for index, csv in enumerate(csvs, 1):
        for method in methods:
            out = os.path.join(outdir, f"{_name('csv', index, csv)}.{method}.json")
            codes[f"fit {method} {csv}"] = _run(
                src, ["fit", "--input", csv, "--method", method, "--output", out])
    return codes


def _leaves(obj, path=""):
    """(path, value) for every scalar of a parsed JSON document."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def _parse(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        return dict(_leaves(json.loads(text)))
    cells = {}
    for i, line in enumerate(text.splitlines()):
        for j, cell in enumerate(line.split("\t")):
            cells[f"row {i} col {j}"] = float(cell)
    return cells


def compare_file(old_path: str, new_path: str) -> str:
    """One line saying how the file at ``new_path`` differs from ``old_path``."""
    with open(old_path, "rb") as a, open(new_path, "rb") as b:
        if a.read() == b.read():
            return "identical"
    old, new = _parse(old_path), _parse(new_path)
    max_abs = max_rel = 0.0
    at = None
    moved = []
    other = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b and type(a) is type(b):
            continue
        if isinstance(a, float) and isinstance(b, float):
            if math.isnan(a) and math.isnan(b):
                continue
            moved.append(key)
            diff = abs(a - b)
            scale = max(abs(a), abs(b))
            max_abs = max(max_abs, diff)
            if scale and diff / scale > max_rel:
                max_rel, at = diff / scale, (key, a)
        else:
            other.append(f"{key}: {a!r} -> {b!r}")
    line = f"max abs diff {max_abs:.3g}, max rel diff {max_rel:.3g}"
    if at is not None:
        line += f" (at {at[0]}, old value {at[1]!r})"
    line += f"; {len(moved)} float(s) moved"
    if len(moved) <= MAX_NAMED:
        line += ": " + ", ".join(moved)
    if other:
        line += f"; {len(other)} non-float difference(s): " + "; ".join(other)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--old", required=True, help="source tree of the reference (its src)")
    parser.add_argument("--new", required=True, help="source tree under test (its src)")
    parser.add_argument("--config", action="append", default=[], help="simulate config")
    parser.add_argument("--csv", action="append", default=[], help="fit input CSV")
    parser.add_argument("--methods", default="lp,closed,lse", help="fit methods, comma-separated")
    parser.add_argument("--workdir", default=None, help="where outputs go (default: a temp dir)")
    args = parser.parse_args(argv)
    trees = {"old": tree_path(args.old), "new": tree_path(args.new)}
    workdir = args.workdir or tempfile.mkdtemp(prefix="compare-reports-")
    methods = args.methods.split(",")
    sides = {}
    for side in ("old", "new"):
        outdir = os.path.join(workdir, side)
        sides[side] = (outdir, run_tree(trees[side], outdir, args.config,
                                        args.csv, methods))
    same = True
    for run, code in sides["old"][1].items():
        if sides["new"][1][run] != code:
            same = False
            print(f"{run}: exit {code} -> {sides['new'][1][run]}")
    files = set(os.listdir(sides["old"][0])) | set(os.listdir(sides["new"][0]))
    for name in sorted(files):
        old_path, new_path = (os.path.join(sides[s][0], name) for s in ("old", "new"))
        if not os.path.exists(new_path):
            line = "only in old"
        elif not os.path.exists(old_path):
            line = "only in new"
        else:
            line = compare_file(old_path, new_path)
        same &= line == "identical"
        print(f"{name}: {line}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
