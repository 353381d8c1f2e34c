"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to stream them). The
distributional thresholds (KS 0.05, slope bands, covariance deviation 0.15)
are the recorded artifact constants; identity and duality tolerances are
absolute on O(1)-scaled data.
"""

import subprocess
import sys

import numpy as np
import pytest

import minimaxreg as mr
from bruteforce import brute_force_minimax

pytestmark = pytest.mark.acceptance


def check(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_exact_identities():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        theta = float(rng.normal() * 3)
        eps = rng.normal(size=n) * float(rng.uniform(0.5, 2.0))
        ds = mr.simulate_dataset(mr.Design(np.ones((n, 1))), [theta], eps)
        fit = mr.minimax_fit_lp(ds)
        e = mr.residuals(ds, [theta])
        mid, half = (e.max() + e.min()) / 2.0, (e.max() - e.min()) / 2.0
        worst = max(worst, abs(fit.theta_hat[0] - theta - mid), abs(fit.delta_hat - half))
    check("criterion 1 (location-model identities)", worst <= 1e-10,
          f"max deviation {worst:.2e} over 1000 fits (tol 1e-10)")


def test_criterion_2_duality():
    rng = np.random.default_rng(1002)
    worst_gap = worst_infeas = 0.0
    for _ in range(500):
        n = int(rng.integers(5, 201))
        q = int(rng.integers(1, 6))
        X = rng.normal(size=(n, q))
        y = rng.normal(size=n) * 2.0
        ds = mr.Dataset(mr.Design(X), y)
        sol = mr.minimax_fit_lp(ds).lp_solution
        cert = mr.dual_certificate(ds, sol)
        worst_gap = max(worst_gap, cert.gap)
        worst_infeas = max(worst_infeas, cert.max_infeasibility())
    ok = worst_gap <= 1e-8 and worst_infeas <= 1e-8
    check("criterion 2 (duality suite)", ok,
          f"max gap {worst_gap:.2e}, max dual infeasibility {worst_infeas:.2e} (tol 1e-8)")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(1003)
    worst_delta = worst_theta = 0.0
    theta_checked = 0
    for _ in range(200):
        q = int(rng.integers(1, 5))
        V = rng.normal(size=(q, q))
        while abs(np.linalg.det(V)) < 0.05:
            V = rng.normal(size=(q, q))
        n = int(rng.integers(2, 101))
        ds = mr.simulate_dataset(
            mr.ReplicatedDesign(V, n), rng.normal(size=q), rng.normal(size=q * n)
        )
        lp_fit = mr.minimax_fit_lp(ds)
        cf_fit = mr.closed_form_fit(ds)
        worst_delta = max(worst_delta, abs(lp_fit.delta_hat - cf_fit.delta_hat))
        if not lp_fit.diagnostics["nonunique_suspected"]:
            theta_checked += 1
            worst_theta = max(
                worst_theta, float(np.abs(lp_fit.theta_hat - cf_fit.theta_hat).max())
            )
    worst_bf = 0.0
    for _ in range(60):
        q = int(rng.integers(1, 3))
        n = int(rng.integers(2, 13 // q))
        V = rng.normal(size=(q, q))
        while abs(np.linalg.det(V)) < 0.05:
            V = rng.normal(size=(q, q))
        ds = mr.simulate_dataset(
            mr.ReplicatedDesign(V, n), rng.normal(size=q), rng.normal(size=q * n)
        )
        fit = mr.minimax_fit_lp(ds)
        _, delta_bf = brute_force_minimax(ds.design.matrix(), ds.y)
        worst_bf = max(worst_bf, abs(fit.delta_hat - delta_bf))
        worst_bf = max(worst_bf, max(0.0, mr.max_abs_residual(ds, fit.theta_hat) - delta_bf))
    ok = worst_delta <= 1e-8 and worst_theta <= 1e-8 and worst_bf <= 1e-8
    check("criterion 3 (LP vs closed form vs brute force)", ok,
          f"delta dev {worst_delta:.2e}, theta dev {worst_theta:.2e} "
          f"({theta_checked} unique), brute-force dev {worst_bf:.2e} (tol 1e-8)")


def test_criterion_4_bounds():
    rng = np.random.default_rng(1004)
    s1_violations = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 12))
        q = int(rng.integers(1, 4))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))]) if q > 1 \
            else np.ones((n, 1))
        theta = rng.normal(size=q)
        ds = mr.simulate_dataset(mr.Design(X), theta, rng.uniform(-1, 1, n))
        fit = mr.minimax_fit_lp(ds)
        e = mr.residuals(ds, theta)
        if fit.delta_hat > (e.max() - e.min()) / 2.0 + 1e-12:
            s1_violations += 1
    r3_violations = 0
    for _ in range(10_000):
        q = int(rng.integers(2, 5))
        k = int(rng.integers(1, q))
        V = rng.normal(size=(k, q))
        n = int(rng.integers(2, 8))
        theta = rng.normal(size=q)
        ds = mr.simulate_dataset(mr.ReplicatedDesign(V, n), theta, rng.uniform(-1, 1, k * n))
        fit = mr.minimax_fit_lp(ds)
        e = mr.residuals(ds, theta).reshape(k, n)
        if fit.delta_hat > (e.max(axis=1) - e.min(axis=1)).max() / 2.0 + 1e-12:
            r3_violations += 1
    ok = s1_violations == 0 and r3_violations == 0
    check("criterion 4 (almost-sure bounds)", ok,
          f"intercept-bound violations {s1_violations}/10000, "
          f"group-bound violations {r3_violations}/10000 (tol 1e-12)")


@pytest.fixture(scope="module")
def example3_report():
    config = mr.ExperimentConfig(
        model=mr.ErrorModel("uniform_symmetric"),
        levels=[[1.0, 0.0], [1.0, 1.0]],
        n_values=(2000,),
        replications=2000,
        master_seed=20_240_817,
        true_theta=[1.0, 2.0],
        methods=("lp", "closed_form"),
        reference_draws=1_000_000,
    )
    return config, mr.run_experiment(config)


def test_criterion_5_uniform_delta_law(example3_report):
    config, report = example3_report
    cell = report.cell(2000, "closed_form")
    ks = cell.ks["delta_uniform_delta"]
    ks_lp = report.cell(2000, "lp").ks["delta_uniform_delta"]
    disc = mr.cross_validate_methods(config, report)
    ok = ks <= 0.05 and ks_lp <= 0.05 and disc.max_delta_diff <= 1e-8
    check("criterion 5 (uniform maximal-residual law)", ok,
          f"KS {ks:.4f} (lp {ks_lp:.4f}) vs 1-(1+x)^2 exp(-2x), threshold 0.05; "
          f"lp/closed-form delta agreement {disc.max_delta_diff:.2e}")


def test_criterion_6_coefficient_law(example3_report):
    _, report = example3_report
    cell = report.cell(2000, "closed_form")
    ks = cell.ks["theta1_detlaw"]
    check("criterion 6 (slope-coefficient limit law)", ks <= 0.05,
          f"KS {ks:.4f} vs direct simulation with 10^6 G-draws, threshold 0.05")


def test_criterion_7_rates():
    ladder = (250, 500, 1000, 2000, 4000)
    uniform_cfg = mr.ExperimentConfig(
        model=mr.ErrorModel("uniform_symmetric"),
        levels=[[1.0, 0.0], [1.0, 1.0]],
        n_values=ladder,
        replications=1000,
        master_seed=20_240_818,
        true_theta=[0.3, -0.7],
        methods=("lp", "lse"),
        reference_draws=100_000,
    )
    slopes = mr.rate_slope(uniform_cfg)
    mme_ok = all(-1.15 <= s <= -0.85 for s in slopes["lp"])
    lse_ok = all(-0.65 <= s <= -0.35 for s in slopes["lse"])

    laplace_cfg = mr.ExperimentConfig(
        model=mr.ErrorModel("laplace"),
        levels=[[1.0]],
        n_values=ladder,
        replications=1000,
        master_seed=20_240_819,
        true_theta=[0.0],
        methods=("lp",),
        reference_draws=100_000,
    )
    laplace_report = mr.run_experiment(laplace_cfg)
    lap_slope = laplace_report.rate_slopes["lp"][0]
    lap_ok = -0.1 <= lap_slope <= 0.1
    # Distributional sub-check at more replications: the 0.05 threshold needs
    # a Monte Carlo noise floor well below it (1.36/sqrt(M)).
    logistic_cfg = mr.ExperimentConfig(
        model=mr.ErrorModel("laplace"),
        levels=[[1.0]],
        n_values=(4000,),
        replications=4000,
        master_seed=20_240_819,
        true_theta=[0.0],
        methods=("lp",),
        reference_draws=100_000,
    )
    logistic_report = mr.run_experiment(logistic_cfg)
    ks_logistic = logistic_report.cell(4000, "lp").ks["theta0_logistic"]
    ks_ok = ks_logistic <= 0.05
    ok = mme_ok and lse_ok and lap_ok and ks_ok
    check("criterion 7 (convergence rates)", ok,
          f"uniform MME slopes {[round(s, 3) for s in slopes['lp']]} in [-1.15,-0.85], "
          f"LSE {[round(s, 3) for s in slopes['lse']]} in [-0.65,-0.35]; "
          f"laplace slope {lap_slope:.3f} in [-0.1,0.1], 2Q_N logistic KS {ks_logistic:.4f}")


def test_criterion_8_range_midrange_laws():
    n, reps, chunk = 10_000, 10_000, 500
    details = []
    ok = True
    for family in ("uniform_symmetric", "laplace"):
        model = mr.ErrorModel(family)
        att = model.attraction
        nc = mr.norming_constants(model, n)
        ranges = np.empty(reps)
        mids = np.empty(reps)
        for start in range(0, reps, chunk):
            block = np.vstack([
                mr.sample(model, n, mr.stream_seed(5150, n, r))
                for r in range(start, start + chunk)
            ])
            hi, lo = block.max(axis=1), block.min(axis=1)
            ranges[start:start + chunk] = hi - lo
            mids[start:start + chunk] = (hi + lo) / 2.0
        ks_sum = mr.ks_distance(nc.b * (ranges - 2 * nc.a), mr.LimitLaw("sum", att))
        ks_diff = mr.ks_distance(2 * nc.b * mids, mr.LimitLaw("midrange_diff", att))
        ok = ok and ks_sum <= 0.05 and ks_diff <= 0.05
        details.append(f"{family}: range KS {ks_sum:.4f}, midrange KS {ks_diff:.4f}")
    check("criterion 8 (range/midrange limit laws)", ok,
          "; ".join(details) + " (threshold 0.05)")


def test_criterion_9_covariance():
    sigma_sq = mr.variance_of_attraction(mr.ErrorModel("uniform_symmetric").attraction)
    assert sigma_sq == 1.0  # variance oracle first
    config = mr.ExperimentConfig(
        model=mr.ErrorModel("uniform_symmetric"),
        levels=np.eye(2),
        n_values=(5000,),
        replications=5000,
        master_seed=20_240_820,
        true_theta=[0.0, 0.0],
        methods=("closed_form",),
        reference_draws=1_000_000,
    )
    report = mr.run_experiment(config)
    comp = mr.covariance_check(config, report)
    marginals = [report.cell(5000, "closed_form").ks[f"theta{i}_detlaw"] for i in range(2)]
    ok = comp.frobenius_rel <= 0.15 and all(ks <= 0.05 for ks in marginals)
    check("criterion 9 (limiting covariance)", ok,
          f"Frobenius relative deviation {comp.frobenius_rel:.4f} from 2(V'V)^-1 "
          f"(tol 0.15); per-coordinate law KS {[round(k, 4) for k in marginals]}")


def test_criterion_10_reproducibility(tmp_path):
    cfg_text = (
        "[experiment]\n"
        "family = uniform\n"
        "v = 1 0 ; 1 1\n"
        "n = 200\n"
        "m = 50\n"
        "seed = 424242\n"
        "theta = 0.5 -1.25\n"
        "methods = lp closed_form\n"
        "reference_draws = 20000\n"
    )
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(cfg_text)

    def run_into(subdir):
        d = tmp_path / subdir
        d.mkdir()
        out = d / "rep.json"
        res = subprocess.run(
            [sys.executable, "-m", "minimaxreg", "simulate",
             "--config", str(cfg), "--output", str(out)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first = run_into("run1")
    second = run_into("run2")
    identical = first == second
    csv = tmp_path / "d.csv"
    csv.write_text("x1,y\n1,0\n1,4\n1,1.5\n")
    fits = []
    for name in ("f1.json", "f2.json"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "minimaxreg", "fit", "--input", str(csv),
             "--method", "lp", "--output", str(out)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        fits.append(out.read_bytes())
    fit_identical = fits[0] == fits[1]
    check("criterion 10 (byte-identical reruns)", identical and fit_identical,
          f"simulate outputs identical: {identical} "
          f"({len(first)} files); fit outputs identical: {fit_identical}")
