"""Command-line interface: exit codes, file outputs, atomicity, round trips."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import minimaxreg as mr
from minimaxreg import errors
from minimaxreg.cli import CliInputError
from minimaxreg.report_io import atomic_write_text, tsv_table


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


# Finite data whose absolute residuals sum past the largest double.
OVERFLOW_CSV = "x1,y\n1,1e308\n2,-1e308\n3,1e308\n"


def reject_constant(name):
    raise ValueError(f"report holds {name}, which JSON does not allow")


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

    @pytest.mark.parametrize("text, status", [
        ("x1,x2,y\n0.75,1e130,1e268\n5.2e16,-1e300,1e130\n", "singular"),
        ("x1,x2,x3,y\n3e200,0.75,0.75,-1.797e308\n1e268,3e200,1e130,3\n", "non-finite"),
        # The singular_basis rows, each written twice: a replicated design,
        # whose solve meets the same singular basis.
        ("x1,x2,y\n0.75,1e130,1e268\n0.75,1e130,1e268\n"
         "5.2e16,-1e300,1e130\n5.2e16,-1e300,1e130\n", "singular"),
        # Pricing overflows; numpy's warnings must not reach stderr.
        ("x1,y\n1,1e308\n1,-1e308\n", "non-finite"),
        # The basic solution overflows to nan before the ratio test.
        ("x1,x2,x3,y\n3e200,-1.797e308,-7e150,3\n1,3,1e268,-7e150\n"
         "0,3,3e200,5.2e16\n3,1,1e268,1.797e308\n", "singular"),
    ], ids=["singular_basis", "non_finite_mixed_scales", "singular_basis_replicated",
                 "non_finite", "singular_basis_overflow"])
    def test_lp_solver_failure_exits_3(self, tmp_path, text, status):
        # Finite but badly scaled data the simplex cannot bring to optimality.
        csv = write(tmp_path / "scaled.csv", text)
        out = tmp_path / "nope.json"
        res = run_cli("fit", "--input", csv, "--method", "lp", "--output", str(out))
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert status in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_badly_scaled_one_row_fits_with_a_certificate(self, tmp_path):
        # Badly scaled, yet the dual's closed-form start is already optimal.
        csv = write(tmp_path / "scaled.csv", "x1,x2,y\n52209839406100920,0.75,0\n")
        out = tmp_path / "fit.json"
        res = run_cli("fit", "--input", csv, "--method", "lp", "--output", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        assert report["theta_hat"] == [0.0, 0.0]
        assert report["delta_hat"] == 0.0 and report["duality_gap"] == 0.0
        ds = mr.Dataset(mr.Design([[52209839406100920.0, 0.75]]), [0.0])
        cert = mr.dual_certificate(ds, mr.minimax_fit_lp(ds).lp_solution)
        assert cert.gap == 0.0 and cert.max_infeasibility() == 0.0

    def test_tiny_data_fits_at_its_own_scale(self, tmp_path):
        # |y| near 1e-12: pricing at scale 1 would stop at the start basis.
        rng = np.random.default_rng(11)
        X = np.column_stack([np.ones(50), rng.random(50), rng.random(50)])
        y = rng.standard_normal(50) * 1e-12
        lines = [",".join(repr(float(v)) for v in row) for row in np.column_stack([X, y])]
        csv = write(tmp_path / "tiny.csv", "x1,x2,x3,y\n" + "\n".join(lines) + "\n")
        out = tmp_path / "tiny.json"
        res = run_cli("fit", "--input", csv, "--method", "lp", "--output", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        assert report["delta_hat"] == report["residual_summary"]["max_abs"] > 0.0
        assert report["nonunique_suspected"] is False

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

    def test_non_utf8_cell_exits_2_naming_the_file(self, tmp_path):
        csv = tmp_path / "latin.csv"
        csv.write_bytes(b"x1,y\n1,2\n1,\xff\n")
        res = run_cli("fit", "--input", str(csv), "--method", "lp",
                      "--output", str(tmp_path / "o.json"))
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: {csv}: not UTF-8 text")
        assert res.stderr.count("\n") == 1
        assert not (tmp_path / "o.json").exists()

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

    @pytest.mark.parametrize("method", ["lp", "lse"])
    def test_overflowing_mean_abs_report_is_strict_json(self, tmp_path, method):
        # The absolute residuals' sum overflows, so their mean is taken over
        # max_abs; the report holds only finite numbers, and numpy's
        # warnings do not reach stderr.
        csv = write(tmp_path / "huge.csv", OVERFLOW_CSV)
        out = tmp_path / "huge.json"
        res = run_cli("fit", "--input", csv, "--method", method, "--output", str(out))
        assert res.returncode == 0 and res.stderr == ""
        report = json.loads(out.read_text(), parse_constant=reject_constant)
        theta = report["theta_hat"][0]
        abs_resid = np.abs(np.array([1e308, -1e308, 1e308]) - theta * np.array([1.0, 2.0, 3.0]))
        summary = report["residual_summary"]
        assert summary["max_abs"] == abs_resid.max()
        assert summary["mean_abs"] == abs_resid.max() * np.mean(abs_resid / abs_resid.max())

    def test_non_finite_report_value_exits_3(self, tmp_path):
        # The closed-form deviation (max - min) / 2 overflows to infinity.
        csv = write(tmp_path / "wide.csv", "x1,y\n1,1.7e308\n1,-1.7e308\n")
        out = tmp_path / "wide.json"
        res = run_cli("fit", "--input", csv, "--method", "closed", "--output", str(out))
        assert res.returncode == 3
        assert res.stderr == "error: closed_form fit: delta or theta is not finite\n"
        assert not out.exists()

    def test_verbose_prints_the_fit(self, tmp_path, capsys):
        from minimaxreg.cli import main

        csv = write(tmp_path / "d.csv", "x1,y\n1,0\n1,4\n")
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", csv, "--method", "closed", "-v", "--output", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"closed_form: theta_hat=[2.0] delta_hat=2.0\nwrote {out}\n")
        assert main(["fit", "--input", csv, "--method", "closed", "--output", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"


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

    @pytest.mark.parametrize("family, message", [
        ("pareto", "pareto_symmetric needs a finite alpha > 0"),
        ("uniform\nalpha = 2", "uniform_symmetric takes no alpha parameter"),
        ("bounded_power\nalpha = 0", "bounded_power needs a finite alpha > 0"),
    ], ids=["missing", "unexpected", "zero"])
    def test_bad_alpha_exits_2_naming_the_path(self, tmp_path, capsys, family, message):
        from minimaxreg.cli import main

        cfg = write(tmp_path / "bad.cfg", SIM_CFG.replace("uniform", family))
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    def test_empty_theta_with_a_flat_v_exits_2(self, tmp_path, capsys):
        from minimaxreg.cli import main

        cfg = write(tmp_path / "bad.cfg", SIM_CFG.replace("v = 1 0 ; 1 1", "v = 1 0 1 1")
                    .replace("theta = 0.5 -1.25", "theta ="))
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: 'v' has 4 entries, not a multiple of q=0\n")

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        from minimaxreg.cli import main

        cfg = write(tmp_path / "exp.cfg", SIM_CFG)
        out = tmp_path / "o.json"
        assert main(["simulate", "--config", cfg, "--seed", "-1", "--output", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_non_utf8_config_exits_2_naming_the_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(SIM_CFG.replace("theta = 0.5", "# \xff\ntheta = 0.5")
                        .encode("latin-1"))
        res = run_cli("simulate", "--config", str(cfg), "--output", str(tmp_path / "o.json"))
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: {cfg}: not UTF-8 text")
        assert res.stderr.count("\n") == 1

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

    def test_full_ecdf_writes_every_point(self, tmp_path, capsys):
        from minimaxreg.cli import main

        cfg = write(tmp_path / "exp.cfg", SIM_CFG.replace("m = 8", "m = 4100")
                    .replace("methods = lp closed_form", "methods = closed_form"))
        for flags, rows in (([], 4096), (["--full-ecdf"], 4100)):
            out = tmp_path / f"r{rows}.json"
            assert main(["simulate", "--config", cfg, *flags, "--output", str(out)]) == 0
            tables = sorted(tmp_path.glob(f"r{rows}.*.ecdf.tsv"))
            assert len(tables) == 4
            for table in tables:
                assert np.loadtxt(table).shape == (rows, 2), table.name

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_overflowing_draws_exit_2_with_one_line(self, tmp_path, jobs):
        # numpy's overflow warnings must not reach stderr; with jobs = 2 the
        # draws overflow in the pool's workers.
        cfg = write(tmp_path / "p.cfg", SIM_CFG.replace("uniform", "pareto\nalpha = 0.01")
                    .replace("n = 40", "n = 2000") + f"jobs = {jobs}\n")
        out = tmp_path / "p.json"
        res = run_cli("simulate", "--config", cfg, "--output", str(out))
        assert res.returncode == 2
        assert res.stderr.startswith("error: pareto_symmetric (alpha=0.01) drew a non-finite")
        assert res.stderr.count("\n") == 1
        assert not out.exists()

    def test_overflowing_scaled_cell_exits_2_with_one_line(self, tmp_path):
        # At n = 40 the draws fit in float64, but their scaled covariance
        # overflows, and JSON has no infinity to write it with.
        cfg = write(tmp_path / "p.cfg", SIM_CFG.replace("uniform", "pareto\nalpha = 0.01")
                    .replace("seed = 99", "seed = 90"))
        out = tmp_path / "p.json"
        res = run_cli("simulate", "--config", cfg, "--output", str(out))
        assert res.returncode == 2
        assert res.stderr.startswith(
            "error: pareto_symmetric (alpha=0.01) at n=40, method lp: a scaled delta")
        assert res.stderr.count("\n") == 1
        assert not out.exists() and not list(tmp_path.glob("*.tsv"))

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


# Each library error class, and the exit code main gives it.
EXIT_TABLE = [
    (errors.ExperimentFailureRateError("breach", failures=5, total=8), 4),
    (errors.SingularDesignError("singular"), 3),
    (errors.WrongShapeError("shape"), 3),
    (errors.RankDeficientError("rank"), 3),
    (errors.SolverStatusError("status", "infeasible"), 3),
    (CliInputError("input"), 2),
    (errors.ExperimentError("experiment"), 2),
    (errors.InvalidModelError("model"), 2),
    (errors.InfiniteVarianceError("variance"), 2),
    (errors.DimensionMismatchError("dimensions"), 2),
    (errors.DualityGapError("gap", 1.0), 2),
    (errors.EmptySampleError("empty"), 2),
    (errors.MinimaxRegError("base"), 2),
]


@pytest.mark.parametrize("command, argv", [
    ("fit", ["--input", "d.csv", "--method", "lp"]),
    ("simulate", ["--config", "exp.cfg"]),
    ("limits", ["--family", "uniform", "--law", "max", "--grid", "0:1:2"]),
])
@pytest.mark.parametrize("error, code", EXIT_TABLE,
                         ids=[type(error).__name__ for error, _ in EXIT_TABLE])
def test_main_maps_each_error_class_to_its_exit_code(
        tmp_path, capsys, monkeypatch, command, argv, error, code):
    import minimaxreg.cli as cli

    def raises(args):
        raise error

    monkeypatch.setattr(cli, f"cmd_{command}", raises)
    assert cli.main([command, *argv, "--output", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


def assert_no_partial_files(root):
    assert list(root.rglob(".partial-*")) == []


class TestOutputPath:
    ARGS = {
        "fit": ["fit", "--input", "{csv}", "--method", "lp"],
        "limits": ["limits", "--family", "uniform", "--law", "delta", "--q", "2",
                   "--grid", "0:2:3"],
    }

    @pytest.mark.parametrize("command", ["fit", "limits"])
    def test_missing_output_directory_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, command):
        import minimaxreg.cli as cli

        def no_work(*args):
            raise AssertionError("worked before checking the output")

        monkeypatch.setattr(cli, "read_fit_csv", no_work)
        monkeypatch.setattr(cli, "limit_cdf", no_work)
        csv = write(tmp_path / "d.csv", "x1,y\n1,0\n1,4\n")
        out = tmp_path / "missing" / "o.json"
        argv = [arg.format(csv=csv) for arg in self.ARGS[command]]
        assert cli.main([*argv, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: output directory {tmp_path / 'missing'} does not exist\n"
        assert_no_partial_files(tmp_path)

    @pytest.mark.parametrize("command", ["fit", "limits"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        import minimaxreg.cli as cli

        csv = write(tmp_path / "d.csv", "x1,y\n1,0\n1,4\n")
        # The output's directory exists, but the path is a directory itself.
        out = tmp_path / "taken"
        out.mkdir()
        argv = [arg.format(csv=csv) for arg in self.ARGS[command]]
        assert cli.main([*argv, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert_no_partial_files(tmp_path)


class TestSimulateWrite:
    CFG = ("[experiment]\nfamily = uniform\nv = 1 0 ; 1 1\nn = 10\nm = 20\nseed = 314\n"
           "theta = 0.5 -1\nmethods = lp closed_form\n")

    def test_directory_in_the_way_writes_no_file(self, tmp_path, capsys):
        import minimaxreg.cli as cli

        cfg = write(tmp_path / "exp.cfg", self.CFG)
        blocker = tmp_path / "o.n10.lp.delta_scaled.ecdf.tsv"
        blocker.mkdir()
        assert cli.main(["simulate", "--config", cfg, "--output", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == f"error: cannot write {blocker}: it is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", blocker.name]

    def test_failed_write_unlinks_every_temporary(self, tmp_path, capsys, monkeypatch):
        import minimaxreg.cli as cli

        written = []

        def third_fails(path, text):
            if len(written) == 2:
                raise OSError("disk full")
            written.append(path)
            atomic_write_text(path, text)

        monkeypatch.setattr(cli, "atomic_write_text", third_fails)
        cfg = write(tmp_path / "exp.cfg", self.CFG)
        assert cli.main(["simulate", "--config", cfg, "--output", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err.endswith(": disk full\n")
        assert [os.path.dirname(p) for p in written] == [str(tmp_path)] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


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

    @pytest.mark.parametrize("grid", ["-inf:inf:5", "-1e308:1e308:3"])
    def test_non_finite_grid_exits_2(self, tmp_path, grid):
        # The second grid's bounds are finite, but its step overflows.
        out = tmp_path / "x.tsv"
        res = run_cli("limits", "--family", "gaussian", "--law", "max",
                      f"--grid={grid}", "--output", str(out))
        assert res.returncode == 2
        assert "grid" in res.stderr and "Traceback" not in res.stderr
        assert not out.exists()

    def test_infinite_alpha_exits_2(self, tmp_path):
        out = tmp_path / "x.tsv"
        res = run_cli("limits", "--family", "pareto", "--alpha", "inf", "--law", "sum",
                      "--grid=0:2:3", "--output", str(out))
        assert res.returncode == 2
        assert "alpha" in res.stderr and not out.exists()


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
