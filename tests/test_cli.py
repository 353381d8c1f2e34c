"""Command-line interface: exit codes, file outputs, atomicity, round trips."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import minimaxreg as mr
from minimaxreg.report_io import tsv_table


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "minimaxreg", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def write(path, text):
    path.write_text(text)
    return str(path)


SIM_CFG = """\
[experiment]
family = uniform
v = 1 0 ; 1 1
n = 40
m = 8
seed = 99
theta = 0.5 -1.25
methods = lp closed_form
reference_draws = 4000
"""


# (line of SIM_CFG, its replacement, the key the error must name)
BAD_CONFIG_VALUES = [
    ("m = 8", "m = abc", "m"),
    ("m = 8", "m = 2.5", "m"),
    ("n = 40", "n = 1e3", "n"),
    ("n = 40", "n_ladder = 40.9 80", "n_ladder"),
    ("seed = 99", "seed = 9.9", "seed"),
    ("seed = 99", "seed = -5", "seed"),
    ("theta = 0.5 -1.25", "theta = 1.0 x", "theta"),
    ("theta = 0.5 -1.25", "theta = 1.0 nan", "theta"),
    ("v = 1 0 ; 1 1", "v = 1 0 ; 1 one", "v"),
    ("reference_draws = 4000", "reference_draws = 4e3", "reference_draws"),
    ("reference_draws = 4000", "reference_draws = 0", "reference_draws"),
    ("reference_draws = 4000", "reference_draws = -5", "reference_draws"),
    ("m = 8", "m = 8\njobs = two", "jobs"),
    ("m = 8", "m = 8\njobs = 0", "jobs"),
    ("m = 8", "m = 8\nks_threshold = -3", "ks_threshold"),
    ("m = 8", "m = 8\nks_threshold = 0.1x", "ks_threshold"),
]


class TestFit:
    def test_two_row_midrange_fit(self, tmp_path):
        csv = write(tmp_path / "d.csv", "x1,y\n1,0\n1,4\n")
        out = tmp_path / "fit.json"
        res = run_cli("fit", "--input", csv, "--method", "lp", "--output", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        assert report["theta_hat"] == [2.0]
        assert report["delta_hat"] == 2.0
        assert report["duality_gap"] <= 1e-10

    def test_non_numeric_cell_exits_2_with_location(self, tmp_path):
        csv = write(tmp_path / "bad.csv", "x1,y\n1,abc\n")
        out = tmp_path / "nope.json"
        res = run_cli("fit", "--input", csv, "--method", "lp", "--output", str(out))
        assert res.returncode == 2
        assert "line 2" in res.stderr and "column 2" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e999"])
    def test_non_finite_cell_exits_2_with_location(self, tmp_path, cell):
        csv = write(tmp_path / "bad.csv", f"x1,x2,y\n1,0,1\n1,{cell},2\n1,2,3\n")
        out = tmp_path / "nope.json"
        res = run_cli("fit", "--input", csv, "--method", "lp", "--output", str(out))
        assert res.returncode == 2, res.stderr
        assert f"line 3, column 2: '{cell}' is not finite" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "x1,x2,y\n52209839406100920,0.75,0\n",
        "x1,x2,x3,y\n3e200,0.75,0.75,-1.797e308\n1e268,3e200,1e130,3\n",
        "x1,x2,x3,y\n3e200,1e130,3e200,3\n-7e150,0.75,5.2e16,3\n"
        "1e268,0,-2,-1e300\n5.2e16,1e130,0,1\n",
    ], ids=["infeasible", "singular_basis", "iteration_limit"])
    def test_lp_solver_failure_exits_3(self, tmp_path, text):
        # Finite but badly scaled data the simplex cannot bring to optimality.
        csv = write(tmp_path / "scaled.csv", text)
        out = tmp_path / "nope.json"
        res = run_cli("fit", "--input", csv, "--method", "lp", "--output", str(out))
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "x1,x2,y\n0,0,1\n0,0,2\n",
        "x1,x2,y\n1,0,1\n2,0,3\n3,0,2\n",
    ], ids=["replicated", "plain"])
    def test_zero_coefficient_is_positive_zero(self, tmp_path, text):
        # A column of zeros pins its coefficient at exactly zero.
        csv = write(tmp_path / "zeros.csv", text)
        out = tmp_path / "zeros.json"
        res = run_cli("fit", "--input", csv, "--method", "lp", "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert "-0.0" not in out.read_text()
        assert json.loads(out.read_text())["theta_hat"][1] == 0.0

    def test_bad_header_exits_2(self, tmp_path):
        csv = write(tmp_path / "bad.csv", "a,b\n1,2\n")
        res = run_cli("fit", "--input", csv, "--method", "lp",
                      "--output", str(tmp_path / "o.json"))
        assert res.returncode == 2

    def test_closed_form_requires_square_replication(self, tmp_path):
        for text in ("x1,x2,y\n1,0,1\n1,1,2\n1,2,3\n",  # no repeated rows
                     "x1,x2,y\n1,0,1\n1,0,2\n1,1,2\n1,1,3\n1,2,3\n1,2,4\n",  # k > q
                     "x1,x2,y\n1,0,1\n1,0,2\n1,1,2\n"):  # unbalanced
            csv = write(tmp_path / "d.csv", text)
            out = tmp_path / "o.json"
            res = run_cli("fit", "--input", csv, "--method", "closed", "--output", str(out))
            assert res.returncode == 3
            assert res.stderr.startswith("error: closed-form fit needs")
            assert res.stderr.count("\n") == 1
            assert not out.exists()

    def test_lp_and_closed_agree_on_replicated_csv(self, tmp_path):
        rng = np.random.default_rng(71)
        rows = []
        for v in ((1.0, 0.0), (1.0, 1.0)):
            for _ in range(5):
                y = 0.3 + 2.0 * v[1] + rng.normal()
                rows.append(f"{v[0]},{v[1]},{float(y)!r}")
        csv = write(tmp_path / "rep.csv", "x1,x2,y\n" + "\n".join(rows) + "\n")
        out_lp, out_cf = tmp_path / "lp.json", tmp_path / "cf.json"
        assert run_cli("fit", "--input", csv, "--method", "lp",
                       "--output", str(out_lp)).returncode == 0
        assert run_cli("fit", "--input", csv, "--method", "closed",
                       "--output", str(out_cf)).returncode == 0
        lp = json.loads(out_lp.read_text())
        cf = json.loads(out_cf.read_text())
        assert abs(lp["delta_hat"] - cf["delta_hat"]) <= 1e-8
        assert lp["replicated_design"] == {"k": 2, "n": 5}

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(72)
        lines = [f"{float(x)!r},{float(y)!r}" for x, y in rng.normal(size=(7, 2))]
        csv = write(tmp_path / "d.csv", "x1,y\n" + "\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert run_cli("fit", "--input", csv, "--method", "lp",
                       "--output", str(out)).returncode == 0
        report = json.loads(out.read_text())
        X = np.array([[float(line.split(",")[0])] for line in lines])
        y = np.array([float(line.split(",")[1]) for line in lines])
        fit = mr.minimax_fit_lp(mr.Dataset(mr.Design(X), y))
        # repr round-trip: parsed floats are bit-identical to the fit.
        assert report["theta_hat"][0] == fit.theta_hat[0]
        assert report["delta_hat"] == fit.delta_hat


class TestSimulate:
    def test_smoke_run_writes_report_and_ecdfs(self, tmp_path):
        cfg = write(tmp_path / "exp.cfg", SIM_CFG)
        out = tmp_path / "rep.json"
        res = run_cli("simulate", "--config", cfg, "--output", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        assert report["config"]["replications"] == 8
        assert "delta_qpower" in report["results"][0]["methods"]["closed_form"]["ks"]
        ecdfs = sorted(p.name for p in tmp_path.glob("*.ecdf.tsv"))
        assert "rep.n40.lp.delta_scaled.ecdf.tsv" in ecdfs
        table = np.loadtxt(tmp_path / "rep.n40.lp.delta_scaled.ecdf.tsv")
        assert table.shape == (8, 2)
        assert table[-1, 1] == 1.0

    def test_single_replication(self, tmp_path):
        cfg = write(tmp_path / "one.cfg", SIM_CFG.replace("m = 8", "m = 1"))
        out = tmp_path / "one.json"
        assert run_cli("simulate", "--config", cfg, "--output", str(out)).returncode == 0
        report = json.loads(out.read_text())
        used = report["results"][0]["methods"]["lp"]["replications_used"]
        assert used == 1

    def test_missing_family_exits_2(self, tmp_path):
        cfg = write(tmp_path / "no_family.cfg",
                    SIM_CFG.replace("family = uniform\n", ""))
        res = run_cli("simulate", "--config", cfg, "--output", str(tmp_path / "o.json"))
        assert res.returncode == 2
        assert "family" in res.stderr

    def test_unknown_key_exits_2_naming_it(self, tmp_path):
        cfg = write(tmp_path / "extra.cfg", SIM_CFG + "mystery = 1\n")
        res = run_cli("simulate", "--config", cfg, "--output", str(tmp_path / "o.json"))
        assert res.returncode == 2
        assert "mystery" in res.stderr

    @pytest.mark.parametrize("old, new, key", BAD_CONFIG_VALUES,
                             ids=[new.split("\n")[-1] for _, new, _ in BAD_CONFIG_VALUES])
    def test_bad_config_value_exits_2_naming_the_key(self, tmp_path, capsys, old, new, key):
        from minimaxreg.cli import main

        assert old in SIM_CFG
        cfg = write(tmp_path / "bad.cfg", SIM_CFG.replace(old, new))
        out = tmp_path / "o.json"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err
        assert list(tmp_path.iterdir()) == [tmp_path / "bad.cfg"]

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        from minimaxreg.cli import main

        cfg = write(tmp_path / "exp.cfg", SIM_CFG)
        out = tmp_path / "o.json"
        assert main(["simulate", "--config", cfg, "--seed", "-1", "--output", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write(tmp_path / "exp.cfg", SIM_CFG)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("simulate", "--config", cfg, "--output", str(a)).returncode == 0
        assert run_cli("simulate", "--config", cfg, "--seed", "1234",
                       "--output", str(b)).returncode == 0
        assert a.read_text() != b.read_text()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path / "exp.cfg", SIM_CFG)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("simulate", "--config", cfg, "--output", str(a)).returncode == 0
        assert run_cli("simulate", "--config", cfg, "--output", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()
        ta = (tmp_path / "a.n40.lp.delta_scaled.ecdf.tsv").read_bytes()
        tb = (tmp_path / "b.n40.lp.delta_scaled.ecdf.tsv").read_bytes()
        assert ta == tb

    def test_example3_config_reports_small_ks(self, tmp_path):
        cfg = write(tmp_path / "ex3.cfg", (
            "[experiment]\n"
            "family = uniform\n"
            "v = 1 0 ; 1 1\n"
            "n = 2000\n"
            "m = 2000\n"
            "seed = 20240817\n"
            "theta = 1.0 2.0\n"
            "methods = closed_form\n"
            "reference_draws = 200000\n"
        ))
        out = tmp_path / "ex3.json"
        res = run_cli("simulate", "--config", cfg, "--output", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        ks = report["results"][0]["methods"]["closed_form"]["ks"]
        assert ks["delta_uniform_delta"] <= 0.05
        assert ks["delta_qpower"] <= 0.05

    def test_failure_rate_breach_exits_4(self, tmp_path, monkeypatch):
        import minimaxreg.cli as cli
        from minimaxreg.errors import ExperimentFailureRateError

        cfg = write(tmp_path / "exp.cfg", SIM_CFG)
        out = tmp_path / "o.json"

        def breached(config):
            raise ExperimentFailureRateError("too many failures", failures=5, total=8)

        monkeypatch.setattr(cli, "run_experiment", breached)
        rc = cli.main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert rc == 4
        assert not out.exists()


class TestLimits:
    def test_uniform_delta_grid(self, tmp_path):
        out = tmp_path / "tab.tsv"
        res = run_cli("limits", "--family", "uniform", "--law", "delta",
                      "--q", "2", "--grid", "0:2:3", "--output", str(out))
        assert res.returncode == 0
        table = np.loadtxt(out)
        assert np.allclose(table[:, 0], [0.0, 1.0, 2.0])
        assert table[0, 1] == 0.0
        assert table[1, 1] == pytest.approx(1 - 4 * math.exp(-2), abs=1e-12)
        assert table[2, 1] == pytest.approx(1 - 9 * math.exp(-4), abs=1e-12)

    def test_logistic_midpoint(self, tmp_path):
        out = tmp_path / "log.tsv"
        res = run_cli("limits", "--family", "laplace", "--law", "logistic",
                      "--grid=-1:1:3", "--output", str(out))
        assert res.returncode == 0
        assert np.loadtxt(out)[1, 1] == 0.5

    def test_qpower_q1_equals_sum(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run_cli("limits", "--family", "laplace", "--law", "qpower", "--q", "1",
                       "--grid=-2:6:9", "--output", str(a)).returncode == 0
        assert run_cli("limits", "--family", "laplace", "--law", "sum",
                       "--grid=-2:6:9", "--output", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unsupported_combination_exits_2(self, tmp_path):
        res = run_cli("limits", "--family", "laplace", "--law", "delta",
                      "--grid", "0:1:2", "--output", str(tmp_path / "x.tsv"))
        assert res.returncode == 2
        res = run_cli("limits", "--family", "uniform", "--law", "logistic",
                      "--grid", "0:1:2", "--output", str(tmp_path / "y.tsv"))
        assert res.returncode == 2

    def test_bad_grid_exits_2(self, tmp_path):
        res = run_cli("limits", "--family", "uniform", "--law", "sum",
                      "--grid", "0:1:1", "--output", str(tmp_path / "x.tsv"))
        assert res.returncode == 2


class TestTsvTable:
    @staticmethod
    def per_cell(rows):
        # The cell-by-cell formatting tsv_table replaced.
        return "\n".join("\t".join(repr(float(v)) for v in row) for row in rows) + "\n"

    def test_bytes_equal_per_cell_formatting(self):
        edge = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e22, 0.1, 2.0**-1074, 1.7976931348623157e308,
                math.inf, -math.inf, math.nan, 1 / 3, 123456789.0]
        rng = np.random.default_rng(31)
        tables = [
            np.array(edge).reshape(-1, 3),
            np.column_stack([rng.normal(size=2000) * 10.0 ** rng.integers(-20, 20, 2000),
                             np.arange(1, 2001) / 2000]),
            np.array([[1, 2], [3, 4]]),
            [[0.5, -0.0], [np.float32(0.1), 7]],
        ]
        for table in tables:
            assert tsv_table(table).encode() == self.per_cell(table).encode()
