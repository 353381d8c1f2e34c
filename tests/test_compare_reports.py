"""scripts/compare_reports.py: every input keeps its own outputs, and a tree
without the package is refused before anything runs."""

import subprocess
import sys
from pathlib import Path

from test_cli import SIM_CFG

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_reports.py"
SRC = ROOT / "src"


def compare(*args, cwd):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True)


def test_same_stem_configs_get_their_own_lines(tmp_path):
    configs = []
    for name, seed in (("a", 99), ("b", 100)):
        (tmp_path / name).mkdir()
        cfg = tmp_path / name / "exp.cfg"
        cfg.write_text(SIM_CFG.replace("seed = 99", f"seed = {seed}"))
        configs += ["--config", cfg]
    res = compare("--old", SRC, "--new", SRC, *configs, "--workdir", tmp_path / "out",
                  cwd=tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    reports = [line for line in res.stdout.splitlines() if ".json: " in line]
    assert reports == ["config1-exp.json: identical", "config2-exp.json: identical"]
    old = tmp_path / "out" / "old"
    assert (old / "config1-exp.json").read_text() != (old / "config2-exp.json").read_text()


def test_a_tree_without_the_package_is_refused(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("x1,y\n1,0\n1,4\n")
    res = compare("--old", tmp_path, "--new", SRC, "--csv", csv, "--workdir", tmp_path / "out",
                  cwd=tmp_path)
    assert res.returncode != 0
    assert res.stderr == f"error: {tmp_path} holds no minimaxreg/__init__.py\n"
    assert not (tmp_path / "out").exists()
