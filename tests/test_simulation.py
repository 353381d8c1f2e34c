"""Monte Carlo engine: KS metric, reproducibility, cross-validation, policies."""

import concurrent.futures
import json
import tracemalloc

import numpy as np
import pytest

import minimaxreg as mr
from minimaxreg.errors import (
    EmptySampleError,
    ExperimentError,
    ExperimentFailureRateError,
    InfiniteVarianceError,
)
from minimaxreg import closed_form, evt, lp, simplex, simulation
from minimaxreg.cli import main as cli_main
from minimaxreg.closed_form import closed_form_batch, lse_fit
from minimaxreg.report_io import canonical_json


def small_config(**overrides):
    base = dict(
        model=mr.ErrorModel("uniform_symmetric"),
        levels=[[1.0, 0.0], [1.0, 1.0]],
        n_values=(30,),
        replications=50,
        master_seed=314,
        true_theta=[0.5, -1.0],
        methods=("lp", "closed_form"),
        reference_draws=5000,
    )
    base.update(overrides)
    return mr.ExperimentConfig(**base)


class TestKsDistance:
    def test_exact_draws_are_close(self):
        rng = np.random.Generator(np.random.Philox(55))
        u = np.maximum(rng.random(100_000), 1e-12)
        samples = np.log(u / (1 - u))  # logistic quantile transform
        assert mr.ks_distance(samples, mr.LimitLaw("logistic")) <= 0.01

    def test_single_sample_at_median(self):
        assert mr.ks_distance([0.0], mr.LimitLaw("logistic")) == 0.5

    def test_degenerate_constant_sample(self):
        law = mr.LimitLaw("logistic")
        c = 1.3
        f = mr.limit_cdf(law, c)
        expected = max(f, 1 - f)
        assert mr.ks_distance(np.full(10, c), law) == pytest.approx(expected)

    def test_reference_sample_target(self):
        rng = np.random.Generator(np.random.Philox(56))
        s = rng.normal(size=2000)
        # A sample against its own ECDF is within one step.
        assert mr.ks_distance(s, s) <= 1.0 / s.shape[0] + 1e-12

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            mr.ks_distance([], mr.LimitLaw("logistic"))

    def test_sorted_reference_gives_the_same_distance(self):
        rng = np.random.default_rng(57)
        s = rng.normal(size=300)
        # Ties, and a zero of each sign, which sort as equals.
        ref = np.concatenate([rng.normal(size=5000), np.round(rng.normal(size=500), 1),
                              [0.0, -0.0, 0.0]])
        rng.shuffle(ref)
        sorted_ref = np.sort(ref)
        assert mr.ks_distance(s, sorted_ref) == mr.ks_distance(s, ref)
        assert mr.ks_distance(s, sorted_ref[::-1]) == mr.ks_distance(s, ref)


class TestRunExperiment:
    def test_single_replication_report(self):
        report = mr.run_experiment(small_config(replications=1, methods=("closed_form",)))
        cell = report.cell(30, "closed_form")
        assert cell.delta.shape == (1,)
        assert cell.theta.shape == (1, 2)
        assert cell.valid.sum() == 1
        assert cell.theta_scaled_cov is None
        d = report.to_dict()
        assert d["results"][0]["methods"]["closed_form"]["replications_used"] == 1

    def test_deterministic_and_schedule_independent(self):
        r1 = mr.run_experiment(small_config(jobs=1, replications=64))
        r2 = mr.run_experiment(small_config(jobs=3, replications=64))
        assert canonical_json(r1.to_dict()) == canonical_json(r2.to_dict())
        c1, c2 = r1.cell(30, "lp"), r2.cell(30, "lp")
        assert np.array_equal(c1.delta, c2.delta)
        assert np.array_equal(c1.theta, c2.theta)

    def test_report_is_json_serializable(self):
        report = mr.run_experiment(small_config(methods=("lp", "closed_form", "lse")))
        text = canonical_json(report.to_dict())
        assert '"rate_slopes"' in text

    def test_bound_counters(self):
        report = mr.run_experiment(small_config())
        checks = report.bound_checks
        assert checks["statement1_applicable"]
        assert checks["statement1_violations"] == 0
        assert not checks["remark3_applicable"]

    def test_remark3_counter_on_underdetermined_design(self):
        cfg = mr.ExperimentConfig(
            model=mr.ErrorModel("laplace"),
            levels=[[1.0, 0.5, -0.5]],
            n_values=(20,),
            replications=30,
            master_seed=8,
            true_theta=[0.1, 0.2, 0.3],
            methods=("lp",),
            reference_draws=1000,
        )
        report = mr.run_experiment(cfg)
        assert report.bound_checks["remark3_applicable"]
        assert report.bound_checks["remark3_violations"] == 0

    def test_failure_rate_policy(self, one_pivot_simplex):
        cfg = small_config(methods=("lp",))
        with pytest.raises(ExperimentFailureRateError) as err:
            mr.run_experiment(cfg)
        # A replication whose start is already optimal fits under the cap.
        assert err.value.causes == {"iteration_limit": 24}
        assert str(err.value) == ("24/50 replications failed for method lp at n=30 "
                                  "(iteration_limit: 24)")

    def test_config_validation(self):
        with pytest.raises(ExperimentError):
            small_config(replications=0)
        with pytest.raises(ExperimentError):
            small_config(n_values=(100, 50))
        with pytest.raises(ExperimentError):
            small_config(methods=("magic",))
        with pytest.raises(ExperimentError):
            small_config(levels=[[1.0, 0.0]])  # closed_form needs k = q
        with pytest.raises(ExperimentError):
            small_config(true_theta=[1.0])
        for bad in (dict(master_seed=-1), dict(jobs=0),
                    dict(reference_draws=0), dict(reference_draws=-5),
                    dict(ks_threshold=-3.0), dict(ks_threshold=0.0),
                    dict(ks_threshold=1.5), dict(ks_threshold=float("nan"))):
            with pytest.raises(ExperimentError):
                small_config(**bad)
        assert small_config(reference_draws=1, ks_threshold=1.0).ks_threshold == 1.0


class TestCrossValidation:
    def test_square_design_agreement(self):
        cfg = small_config(replications=100, n_values=(25,))
        disc = mr.cross_validate_methods(cfg)
        assert disc.compared == 100
        assert disc.max_delta_diff <= 1e-8
        assert disc.max_theta_diff <= 1e-8

    def test_location_model_agreement(self):
        cfg = mr.ExperimentConfig(
            model=mr.ErrorModel("laplace"),
            levels=[[1.0]],
            n_values=(40,),
            replications=80,
            master_seed=77,
            true_theta=[0.25],
            methods=("lp", "closed_form"),
            reference_draws=1000,
        )
        disc = mr.cross_validate_methods(cfg)
        # Both routes reduce to the midrange here, and theta is unique.
        assert disc.theta_compared == 80
        assert disc.max_theta_diff <= 1e-10

    def test_degenerate_zero_errors(self):
        rd = mr.ReplicatedDesign([[1.0, 0.0], [1.0, 1.0]], 4)
        ds = mr.simulate_dataset(rd, [2.0, -3.0], np.zeros(8))
        lp_fit = mr.minimax_fit_lp(ds)
        cf_fit = mr.closed_form_fit(ds)
        assert lp_fit.delta_hat == 0.0
        assert cf_fit.delta_hat == 0.0
        assert np.abs(lp_fit.theta_hat - cf_fit.theta_hat).max() < 1e-12

    def test_requires_square_design_and_methods(self):
        with pytest.raises(ExperimentError):
            mr.cross_validate_methods(small_config(methods=("lp",)))


class TestCovarianceCheck:
    def test_infinite_variance_refusal(self):
        cfg = mr.ExperimentConfig(
            model=mr.ErrorModel("pareto_symmetric", 1.5),
            levels=[[1.0]],
            n_values=(20,),
            replications=10,
            master_seed=4,
            true_theta=[0.0],
            methods=("closed_form",),
            reference_draws=1000,
        )
        with pytest.raises(InfiniteVarianceError):
            mr.covariance_check(cfg)

    def test_target_matrix_analytic_inverse(self):
        cfg = small_config(methods=("closed_form",), replications=200, n_values=(200,))
        comp = mr.covariance_check(cfg)
        # V'V = [[2, 1], [1, 1]] so (V'V)^-1 = [[1, -1], [-1, 2]].
        assert np.allclose(comp.target, 2.0 * np.array([[1.0, -1.0], [-1.0, 2.0]]))
        assert comp.sigma_sq == 1.0
        recomputed = np.linalg.norm(comp.sample_cov - comp.target) / np.linalg.norm(comp.target)
        assert comp.frobenius_rel == pytest.approx(recomputed)


class TestRateSlope:
    def test_ladder_validation(self):
        with pytest.raises(ExperimentError):
            mr.rate_slope(small_config(n_values=(10, 20, 40)))
        with pytest.raises(ExperimentError):
            mr.rate_slope(small_config(n_values=(10, 20, 40, 80), replications=100))

    def test_small_ladder_slopes_exist(self):
        cfg = small_config(
            n_values=(50, 100, 200, 400), replications=500,
            methods=("closed_form", "lse"),
        )
        slopes = mr.rate_slope(cfg)
        assert set(slopes) == {"closed_form", "lse"}
        assert len(slopes["closed_form"]) == 2
        # Directionally correct already at small sizes.
        assert slopes["closed_form"][1] < -0.6
        assert slopes["lse"][1] > -0.8


class TestEcdfTable:
    def test_exact_small_sample(self):
        table = mr.ecdf_table([3.0, 1.0, 2.0])
        assert np.array_equal(table[:, 0], [1.0, 2.0, 3.0])
        assert np.allclose(table[:, 1], [1 / 3, 2 / 3, 1.0])

    def test_thinning_bound(self):
        rng = np.random.default_rng(12)
        table = mr.ecdf_table(rng.normal(size=20_000), max_points=4096)
        assert table.shape[0] <= 4096
        assert table[-1, 1] == 1.0
        assert np.all(np.diff(table[:, 0]) >= 0)
        assert np.all(np.diff(table[:, 1]) > 0)

    def test_empty(self):
        with pytest.raises(EmptySampleError):
            mr.ecdf_table([])


def _replication_errors(config, n, m):
    """The errors of replications 0 to m - 1 at n, one row each: consecutive
    slices of one ``evt.sample`` of stream 0."""
    seed = mr.stream_seed(config.master_seed, n, 0)
    return mr.sample(config.model, m * config.k * n, seed).reshape(m, -1)


def _per_replication_reference(config):
    """Every cell and bound count of ``config``, one full Dataset per replication.

    The reference for the engine: each replication is fitted on its full
    dataset, its slice of the stream, through the public fit functions.
    """
    fitters = {
        "lp": mr.minimax_fit_lp,
        "closed_form": mr.closed_form_fit,
        "lse": mr.lse_fit,
    }
    k, q, m = config.k, config.q, config.replications
    intercept = bool(np.all(config.levels[:, 0] == 1.0))
    remark3 = bool(k < q and np.linalg.matrix_rank(config.levels) == k)
    cells, s1, r3 = {}, 0, 0
    for n in config.n_values:
        design = mr.ReplicatedDesign(config.levels, n)
        for method in config.methods:
            cells[n, method] = {
                "delta": np.full(m, np.nan), "theta": np.full((m, q), np.nan),
                "nonunique": np.zeros(m, dtype=bool), "valid": np.zeros(m, dtype=bool),
            }
        for r, eps in enumerate(_replication_errors(config, n, m)):
            ds = mr.simulate_dataset(design, config.true_theta, eps)
            errors = mr.residuals(ds, config.true_theta)
            half_range = (errors.max() - errors.min()) / 2.0
            e = errors.reshape(k, n)
            half_group = float((e.max(axis=1) - e.min(axis=1)).max()) / 2.0
            slack = 1e-12 * max(1.0, float(np.abs(ds.y).max()))
            for method in config.methods:
                try:
                    fit = fitters[method](ds)
                except (mr.SolverStatusError, mr.SingularDesignError):
                    continue
                cell = cells[n, method]
                cell["delta"][r] = fit.delta_hat
                cell["theta"][r] = fit.theta_hat
                cell["nonunique"][r] = bool(fit.diagnostics.get("nonunique_suspected", False))
                cell["valid"][r] = True
                if method != "lse":
                    s1 += intercept and fit.delta_hat > half_range + slack
                    r3 += remark3 and fit.delta_hat > half_group + slack
    return cells, s1, r3


def _wide_design():
    rng = np.random.default_rng(1)
    return rng.normal(size=(5, 9)), rng.normal(size=9) * 1e6


_WIDE_V, _WIDE_THETA = _wide_design()
ORACLE_CONFIGS = {
    "square_uniform": dict(model=mr.ErrorModel("uniform_symmetric")),
    "square_gaussian_lse": dict(model=mr.ErrorModel("gaussian"), n_values=(20, 40),
                                methods=("lp", "closed_form", "lse")),
    "k_above_q": dict(model=mr.ErrorModel("laplace"), levels=[[1.0, 0.0], [1.0, 1.0], [1.0, 2.5]],
                      methods=("lp", "lse")),
    "remark3": dict(model=mr.ErrorModel("laplace"), levels=[[1.0, 0.5, -0.5]],
                    true_theta=[0.1, 0.2, 0.3], methods=("lp",)),
    "location": dict(model=mr.ErrorModel("pareto_symmetric", 2.5), levels=[[1.0]],
                     true_theta=[0.25], methods=("lp", "closed_form", "lse")),
    "large_scale": dict(model=mr.ErrorModel("uniform_symmetric"),
                        levels=[[998.1, 1.0, -1003.0], [1.0, 1001.0, 3.0], [-997.0, 2.0, 1000.5]],
                        true_theta=[1.1e6, -2.3e6, 0.7e6], methods=("lp", "closed_form", "lse")),
    "wide": dict(model=mr.ErrorModel("gaussian"), levels=_WIDE_V, true_theta=_WIDE_THETA,
                 n_values=(5,), methods=("lp",)),
}


@pytest.mark.parametrize("jobs", (1, 3))
@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_engine_equals_per_replication_fits_exactly(name, jobs):
    config = small_config(replications=24, jobs=jobs, **ORACLE_CONFIGS[name])
    report = mr.run_experiment(config)
    cells, s1, r3 = _per_replication_reference(config)
    for (n, method), want in cells.items():
        got = report.cell(n, method)
        for key in ("delta", "theta", "nonunique", "valid"):
            assert np.array_equal(getattr(got, key), want[key],
                                  equal_nan=key in ("delta", "theta")), (n, method, key)
    assert report.bound_checks["statement1_violations"] == s1
    assert report.bound_checks["remark3_violations"] == r3


def test_bound_slack_scales_with_y():
    # theta ~ 1e6 puts |y| near 2e6; rounding then exceeds an absolute 1e-12.
    report = mr.run_experiment(small_config(replications=60, **ORACLE_CONFIGS["wide"]))
    assert report.bound_checks["remark3_applicable"]
    assert report.bound_checks["remark3_violations"] == 0


@pytest.mark.parametrize("excess, counted", ((1000.0, 20), (0.5, 0)))
def test_bound_counter_counts_delta_above_the_slack(monkeypatch, excess, counted):
    level_extremes = simulation._level_extremes
    error_extremes = []

    def keep_error_extremes(config, n, reps):
        ext, lse_fits = level_extremes(config, n, reps)
        error_extremes.append(ext[2:])
        return ext, lse_fits

    def over_bound(V, y_max, y_min):
        _, theta = closed_form_batch(V, y_max, y_min)
        e_max, e_min = error_extremes[-1]
        y_scale = np.maximum(1.0, np.maximum(np.abs(y_max), np.abs(y_min)).max(axis=1))
        half_range = (e_max.max(axis=1) - e_min.min(axis=1)) / 2.0
        return half_range + excess * simulation.BOUND_TOL * y_scale, theta

    monkeypatch.setattr(simulation, "_level_extremes", keep_error_extremes)
    monkeypatch.setattr(simulation, "closed_form_batch", over_bound)
    config = small_config(methods=("closed_form",), replications=20, true_theta=[3e5, -2e5])
    checks = mr.run_experiment(config).bound_checks
    assert checks["statement1_applicable"]
    assert checks["statement1_violations"] == counted


@pytest.mark.parametrize("q", (2, 3, 5))
def test_column_blocked_solve_equals_the_whole_solve(q):
    rng = np.random.default_rng(q)
    V = rng.normal(size=(q, q))
    rhs = rng.gumbel(size=(q, 100_003))
    whole = np.linalg.solve(V, rhs)
    for block in np.array_split(rhs, 100_003 // (7 * q + 1), axis=1):
        block[...] = np.linalg.solve(V, block)
    assert np.array_equal(rhs, whole)


def _whole_reference(config, n):
    """The direct-simulation reference held whole: both q x draws matrices of
    G variates, from streams 1 and 2, drawn at once, solved whole and sorted
    row by row."""
    q, draws, att = config.q, config.reference_draws, config.model.attraction
    zeta, zeta_p = (
        mr.sample_attraction(att, q * draws, mr.stream_seed(config.master_seed, n, r))
        .reshape(q, draws)
        for r in (1, 2))
    return np.sort(np.linalg.solve(config.levels, zeta - zeta_p), axis=1)


def _whole_reference_ks(ref, theta_scaled):
    return {f"theta{i}_detlaw": mr.ks_distance(theta_scaled[:, i], row)
            for i, row in enumerate(ref)}


REFERENCE_MODELS = [
    (mr.ErrorModel("bounded_power", 0.5), [[2.0]]),
    (mr.ErrorModel("gaussian"), [[1.0, 0.0], [1.0, 1.0]]),
    (mr.ErrorModel("pareto_symmetric", 2.5), [[1.0, 0.0, 0.5], [1.0, 1.0, -1.0], [1.0, 2.0, 0.0]]),
]


# 1001 and 873,801 are 1 mod 4, so rows and blocks start mid Philox step; the
# small blocks are too slow at 873,801 draws.
@pytest.mark.parametrize("draws, block_draws", [
    (1001, None), (1001, 4), (1001, 16), (1001, 1000), (873_801, None), (873_801, 1000),
])
@pytest.mark.parametrize("model, levels", REFERENCE_MODELS, ids=("bounded_q1", "gaussian_q2", "pareto_q3"))
def test_streamed_detlaw_ks_equals_the_whole_reference(monkeypatch, model, levels, draws,
                                                       block_draws):
    config = small_config(model=model, levels=levels, true_theta=np.ones(len(levels)),
                          methods=("lp",), reference_draws=draws, replications=9)
    rng = np.random.default_rng(draws + config.q)
    lp_scaled = 2.0 * rng.normal(size=(300, config.q))
    cf_scaled = lp_scaled[:200].copy()
    ref = _whole_reference(config, 30)
    # Points on reference draws, where a count must include the tie.
    cf_scaled[:40] = ref[:, rng.integers(0, draws, size=40)].T
    if block_draws is not None:
        monkeypatch.setattr(simulation, "SAMPLE_BLOCK_DRAWS", block_draws)
    got = simulation._detlaw_ks(config, 30, {"lp": lp_scaled, "closed_form": cf_scaled})
    assert got == {"lp": _whole_reference_ks(ref, lp_scaled),
                   "closed_form": _whole_reference_ks(ref, cf_scaled)}


def test_report_detlaw_ks_equals_the_whole_reference():
    config = small_config(reference_draws=20_001)
    report = mr.run_experiment(config)
    ref = _whole_reference(config, 30)
    for method in config.methods:
        cell = report.cell(30, method)
        want = _whole_reference_ks(ref, cell.theta_scaled)
        assert {k: v for k, v in cell.ks.items() if k.endswith("_detlaw")} == want


def test_reference_pass_memory_does_not_grow_with_the_draws():
    # The whole reference at q = 2 and 10^6 draws is 16 MB, and two matrices
    # of it 32 MB; the streamed pass holds about 1 MiB blocks.
    config = small_config(model=mr.ErrorModel("gaussian"), reference_draws=1_000_000)
    theta_scaled = np.random.default_rng(3).normal(size=(2000, 2))
    tracemalloc.start()
    try:
        simulation._detlaw_ks(config, 30, {"lp": theta_scaled, "closed_form": theta_scaled})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("model", [mr.ErrorModel("uniform_symmetric"),
                                   mr.ErrorModel("pareto_symmetric", 2.5)], ids=str)
def test_each_limit_law_is_priced_once_per_equal_delta_sample(monkeypatch, model):
    config = small_config(model=model, n_values=(30, 60), replications=40)
    calls = []
    limit_cdf = evt.limit_cdf

    def counted(law, x):
        calls.append(law.kind)
        return limit_cdf(law, x)

    monkeypatch.setattr(evt, "limit_cdf", counted)
    report = mr.run_experiment(config)
    laws = 2 if model.family == "uniform_symmetric" else 1
    assert len(calls) == laws * len(config.n_values)
    law = mr.LimitLaw("qpower", model.attraction, q=2)
    for n in config.n_values:
        lp_cell, cf_cell = report.cell(n, "lp"), report.cell(n, "closed_form")
        assert np.array_equal(lp_cell.delta_scaled, cf_cell.delta_scaled)
        assert lp_cell.ks["delta_qpower"] == cf_cell.ks["delta_qpower"] == mr.ks_distance(
            cf_cell.delta_scaled, law)


def _sampled_extremes(config, n, reps):
    """``_level_extremes`` one replication at a time, on its slice of the
    stream that ``evt.sample`` draws."""
    k = config.k
    mu = (config.levels @ config.true_theta)[:, None]
    ext = np.empty((4, len(reps), k))
    y_mean = np.empty((len(reps), k))
    errors = _replication_errors(config, n, max(reps) + 1)
    for idx, r in enumerate(reps):
        y = mu + errors[r].reshape(k, n)
        e = y - mu
        ext[:, idx] = (y.max(axis=1), y.min(axis=1), e.max(axis=1), e.min(axis=1))
        y_mean[idx] = y.mean(axis=1)
    return ext, y_mean


def _q8_design(seed, k):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(k, 8)), rng.normal(size=8)


# Seeded so that the expanded X @ theta varies within a level (n = 37), and
# so that it is one value per level (n = 30) that V @ theta misses.
_Q8_V, _Q8_THETA = _q8_design(3, 10)
_Q8_CONSTANT_V, _Q8_CONSTANT_THETA = _q8_design(1, 9)
EXTREME_MODELS = [
    mr.ErrorModel("uniform_symmetric"), mr.ErrorModel("laplace"), mr.ErrorModel("gaussian"),
    mr.ErrorModel("bounded_power", 0.5), mr.ErrorModel("bounded_power", 3.0),
    mr.ErrorModel("pareto_symmetric", 0.7), mr.ErrorModel("pareto_symmetric", 2.5),
]


@pytest.mark.parametrize("methods", (("lp",), ("lp", "lse")), ids=("no_lse", "lse"))
@pytest.mark.parametrize("model", EXTREME_MODELS, ids=str)
def test_level_extremes_equal_per_replication_sampling(monkeypatch, model, methods):
    designs = [
        (30, [[1.0, 0.0], [1.0, 1.0]], [0.5, -1.0]),
        (30, [[1.0, 0.0], [1.0, 1.0], [1.0, 2.5]], [1e3, -7.0]),
        (37, _Q8_V, _Q8_THETA),
        (30, _Q8_CONSTANT_V, _Q8_CONSTANT_THETA),
    ]
    mu = (mr.ReplicatedDesign(_Q8_V, 37).matrix() @ _Q8_THETA).reshape(10, 37)
    assert not np.all(mu == mu[:, :1])
    mu = (mr.ReplicatedDesign(_Q8_CONSTANT_V, 30).matrix() @ _Q8_CONSTANT_THETA).reshape(9, 30)
    assert np.all(mu == mu[:, :1])
    assert not np.array_equal(mu[:, 0], _Q8_CONSTANT_V @ _Q8_CONSTANT_THETA)
    for n, V, theta in designs:
        config = small_config(model=model, levels=V, true_theta=theta, n_values=(n,),
                              methods=methods, replications=23)
        want_ext, want_mean = _sampled_extremes(config, n, range(2, 23))
        # Blocks of 5 replications: 21 is not a multiple of the block rows.
        monkeypatch.setattr(simulation, "SAMPLE_BLOCK_DRAWS", 5 * config.k * n + 3)
        for reps in (range(2, 23), range(2, 9)):
            ext, y_mean = simulation._level_extremes(config, n, reps)
            assert np.array_equal(ext, want_ext[:, :len(reps)])
            if "lse" in methods:
                assert np.array_equal(y_mean, want_mean[:len(reps)])
            else:
                assert y_mean is None
        monkeypatch.undo()
    # At the default block size, 70 rows of 2 x 1000 draws are 65 + 5.
    config = small_config(model=model, n_values=(1000,), methods=methods, replications=70)
    ext, y_mean = simulation._level_extremes(config, 1000, range(70))
    want_ext, want_mean = _sampled_extremes(config, 1000, range(70))
    assert simulation.SAMPLE_BLOCK_DRAWS // 2000 == 65
    assert np.array_equal(ext, want_ext)
    assert y_mean is None if "lse" not in methods else np.array_equal(y_mean, want_mean)


class SerialPool:
    """A stand-in for ProcessPoolExecutor that maps in this process and
    records the worker counts it was asked for and the replication ranges."""

    max_workers, ranges = [], []

    def __init__(self, max_workers):
        SerialPool.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, configs, ns, ranges):
        SerialPool.ranges += ranges
        return map(fn, configs, ns, ranges)


@pytest.fixture
def three_cpus(monkeypatch):
    """Three CPUs to run on, and a pool that never forks: ``_dispatch_blocks``
    imports the pool from concurrent.futures when it needs one."""
    monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    SerialPool.max_workers, SerialPool.ranges = [], []
    return SerialPool


@pytest.mark.parametrize("block_rows", (1, 3))
@pytest.mark.parametrize("methods", (("lp",), ("lp", "lse")), ids=("extremes_first", "lse"))
def test_blocks_and_jobs_read_the_stream_mid_philox_step(monkeypatch, three_cpus, methods,
                                                         block_rows):
    # k n = 21 is 1 mod 4, so jobs ranges (0, 7, 14) and blocks of 1 or 3
    # replications start at every offset within a Philox counter step.
    k, n, m = 3, 7, 20
    config = small_config(levels=[[1.0, 0.0], [1.0, 1.0], [1.0, 2.5]], n_values=(n,),
                          replications=m, methods=methods, jobs=3)
    level_extremes = simulation._level_extremes
    seen = {}

    def kept(config, n, reps):
        seen[reps.start] = out = level_extremes(config, n, reps)
        return out

    monkeypatch.setattr(simulation, "_level_extremes", kept)
    monkeypatch.setattr(simulation, "SAMPLE_BLOCK_DRAWS", block_rows * k * n)
    mr.run_experiment(config)
    assert three_cpus.max_workers == [3]
    assert three_cpus.ranges == [range(0, 7), range(7, 14), range(14, 20)]
    want_ext, want_mean = _sampled_extremes(config, n, range(m))
    assert np.array_equal(np.concatenate([seen[s][0] for s in (0, 7, 14)], axis=1), want_ext)
    if "lse" in methods:
        assert np.array_equal(np.concatenate([seen[s][1] for s in (0, 7, 14)]), want_mean)
    else:
        assert all(seen[s][1] is None for s in seen)


def test_jobs_beyond_the_cpus_start_one_worker_per_cpu(three_cpus):
    config = small_config(methods=("closed_form",), n_values=(2,), replications=20_000,
                          reference_draws=1000, jobs=5000)
    mr.run_experiment(config)
    assert three_cpus.max_workers == [3]
    assert three_cpus.ranges == [range(0, 6667), range(6667, 13334), range(13334, 20000)]


def test_jobs_without_sched_getaffinity_count_the_machines_cpus(monkeypatch, three_cpus):
    # macOS and Windows have no os.sched_getaffinity.
    config = small_config(replications=20, jobs=3)
    want = canonical_json(mr.run_experiment(config).to_dict())
    assert three_cpus.max_workers == [3]
    monkeypatch.delattr(simulation.os, "sched_getaffinity")
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 3)
    for jobs, workers in ((1, []), (3, [3])):
        three_cpus.max_workers, three_cpus.ranges = [], []
        report = mr.run_experiment(small_config(replications=20, jobs=jobs))
        assert canonical_json(report.to_dict()) == want
        assert three_cpus.max_workers == workers
    assert three_cpus.ranges == [range(0, 7), range(7, 14), range(14, 20)]


@pytest.mark.parametrize("model, methods", [
    (mr.ErrorModel("uniform_symmetric"), ("lp",)),
    (mr.ErrorModel("laplace"), ("lp", "lse")),
    (mr.ErrorModel("gaussian"), ("lp",)),
], ids=("extremes_first", "full_transform_lse", "full_transform"))
def test_level_extremes_holds_one_sampling_block(model, methods):
    # One replication per block: the full transform overwrites the uniforms,
    # and each block is freed before the next is drawn.
    n = simulation.SAMPLE_BLOCK_DRAWS // 2
    config = small_config(model=model, n_values=(n,), methods=methods, replications=4)
    tracemalloc.start()
    try:
        simulation._level_extremes(config, n, range(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_bytes = 8 * simulation.SAMPLE_BLOCK_DRAWS
    assert block_bytes < peak < 1.5 * block_bytes


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
@pytest.mark.parametrize("block_rows", (1, 4, 100))
def test_nonfinite_draw_names_the_first_such_replication(monkeypatch, block_rows):
    config = small_config(model=mr.ErrorModel("pareto_symmetric", 0.01), n_values=(10,),
                          replications=40, methods=("lp",), master_seed=8)
    bad = [r for r in range(40)
           if not np.isfinite(_sampled_extremes(config, 10, [r])[0][:2]).all()]
    # Replications 5 and 16 overflow: blocks of 4 put 5 mid-block, one
    # block of 40 holds both.
    assert bad == [5, 16]
    first = bad[0]
    monkeypatch.setattr(simulation, "SAMPLE_BLOCK_DRAWS", block_rows * config.k * 10)
    with pytest.raises(mr.InvalidModelError, match=f"n=10, replication {first}:"):
        simulation._level_extremes(config, 10, range(40))
    with pytest.raises(mr.InvalidModelError, match=f"n=10, replication {first}:"):
        mr.run_experiment(config)


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
def test_nonfinite_draws_name_the_family(tmp_path):
    config = small_config(model=mr.ErrorModel("pareto_symmetric", 0.01), n_values=(30,),
                          replications=20)
    with pytest.raises(mr.InvalidModelError, match=r"pareto_symmetric \(alpha=0\.01\).*"
                       r"n=30, replication \d+"):
        mr.run_experiment(config)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nfamily = pareto\nalpha = 0.01\nv = 1 0 ; 1 1\nn = 30\n"
                   "m = 20\nseed = 314\ntheta = 0.5 -1\nmethods = lp closed_form\n"
                   "reference_draws = 1000\n")
    assert cli_main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o.json")]) == 2


def test_singular_lp_basis_is_a_recorded_failure(monkeypatch):
    def singular(A, b, c, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(simplex, "solve_standard_form", singular)
    with pytest.raises(ExperimentFailureRateError) as err:
        mr.run_experiment(small_config(methods=("lp",), replications=20))
    assert (err.value.failures, err.value.total) == (20, 20)
    assert err.value.causes == {"singular_basis": 20}
    assert str(err.value) == ("20/20 replications failed for method lp at n=30 "
                              "(singular_basis: 20)")


def test_start_is_built_once_per_level_matrix(monkeypatch):
    calls = []
    start_at = simplex.start_at

    def counted(A, basis):
        calls.append(A.shape)
        return start_at(A, basis)

    monkeypatch.setattr(simplex, "start_at", counted)
    config = small_config(methods=("lp",), n_values=(30, 60), replications=50, jobs=1)
    lp._cached_dual_system.cache_clear()
    cold = canonical_json(mr.run_experiment(config).to_dict())
    assert calls == [(3, 4)]
    warm = canonical_json(mr.run_experiment(config).to_dict())
    assert calls == [(3, 4)]
    assert warm == cold


def test_singular_start_basis_is_a_recorded_failure(tmp_path, capsys):
    # The start of these levels' dual meets a singular basis: every
    # replication fails with that cause, not with a numpy error.
    levels = [[1e268, 1e130, 0.75], [-2.0, 5.2e16, 1.0]]
    config = small_config(levels=levels, true_theta=[0.5, -1.0, 0.25], methods=("lp",),
                          n_values=(10,), replications=20)
    with pytest.raises(ExperimentFailureRateError) as err:
        mr.run_experiment(config)
    assert (err.value.failures, err.value.total) == (20, 20)
    assert err.value.causes == {"singular_basis": 20}
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nfamily = uniform\nv = 1e268 1e130 0.75 ; -2 5.2e16 1\n"
                   "n = 10\nm = 20\nseed = 314\ntheta = 0.5 -1 0.25\nmethods = lp\n")
    out = tmp_path / "o.json"
    assert cli_main(["simulate", "--config", str(cfg), "--output", str(out)]) == 4
    assert not out.exists()
    assert capsys.readouterr().err == ("error: 20/20 replications failed for method lp at "
                                       "n=10 (singular_basis: 20)\n")


def test_singular_square_levels_fail_every_replication(tmp_path, capsys):
    config = small_config(levels=[[1.0, 1.0], [2.0, 2.0]], methods=("closed_form",),
                          replications=20)
    with pytest.raises(ExperimentFailureRateError) as err:
        mr.run_experiment(config)
    assert (err.value.failures, err.value.total) == (20, 20)
    assert err.value.causes == {"singular_levels": 20}
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nfamily = uniform\nv = 1 1 ; 2 2\nn = 30\nm = 20\n"
                   "seed = 314\ntheta = 0.5 -1\nmethods = closed_form\n")
    out = tmp_path / "o.json"
    assert cli_main(["simulate", "--config", str(cfg), "--output", str(out)]) == 4
    assert not out.exists()
    assert capsys.readouterr().err == ("error: 20/20 replications failed for method "
                                       "closed_form at n=30 (singular_levels: 20)\n")


@pytest.mark.parametrize("model", (mr.ErrorModel("uniform_symmetric"), mr.ErrorModel("gaussian")),
                         ids=str)
@pytest.mark.parametrize("methods", (("lp", "closed_form"), ("lp", "closed_form", "lse")),
                         ids=("no_lse", "lse"))
def test_engine_expands_no_design(monkeypatch, model, methods):
    calls = {"matrix": 0, "lse_fit": 0}
    matrix = mr.ReplicatedDesign.matrix

    def counted_matrix(self):
        calls["matrix"] += 1
        return matrix(self)

    def counted_lse_fit(dataset):
        calls["lse_fit"] += 1
        return lse_fit(dataset)

    monkeypatch.setattr(mr.ReplicatedDesign, "matrix", counted_matrix)
    for module in (mr, closed_form, simulation):
        monkeypatch.setattr(module, "lse_fit", counted_lse_fit, raising=False)
    config = small_config(model=model, n_values=(10, 20, 40), methods=methods, replications=24)
    report = mr.run_experiment(config)
    assert all(cell.valid.all() for entry in report.per_n for cell in entry.methods.values())
    assert calls == {"matrix": 0, "lse_fit": 0}


def test_undefined_rate_slope_is_null_in_strict_json(tmp_path):
    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    # The errors round to +-1, so every median |theta_i - theta| is 0.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nfamily = bounded_power\nalpha = 0.01\nv = 1 0 ; 1 1\n"
                   "n_ladder = 50 100\nm = 20\nseed = 1\ntheta = 1 2\n"
                   "methods = lp closed_form\nreference_draws = 100\n")
    out = tmp_path / "o.json"
    assert cli_main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
    report = json.loads(out.read_text(), parse_constant=no_constant)
    assert report["rate_slopes"] == {"closed_form": [None, None], "lp": [None, None]}


@pytest.fixture
def sampling_forbidden(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled a replication")

    monkeypatch.setattr(evt, "uniforms", no_sampling)


def test_unidentified_lse_fails_before_sampling(sampling_forbidden, tmp_path, capsys):
    with pytest.raises(ExperimentError, match="rank 1 < 3"):
        small_config(levels=[[1.0, 0.5, -0.5]], true_theta=[0.1, 0.2, 0.3],
                     methods=("lp", "lse"))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nfamily = laplace\nv = 1 0.5 -0.5\nn = 30\nm = 20\n"
                   "seed = 314\ntheta = 0.1 0.2 0.3\nmethods = lp lse\n")
    assert cli_main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o.json")]) == 2
    assert "design has rank 1 < 3" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, key", [
    (dict(true_theta=[np.inf, 0.0]), "theta"),
    (dict(true_theta=[0.5, np.nan]), "theta"),
    (dict(true_theta=[1e308, 1e308]), "theta"),  # V theta overflows
    (dict(methods=("lp", "lp", "closed_form")), "methods"),
], ids=("inf_theta", "nan_theta", "overflowing_mean", "repeated_method"))
def test_unrunnable_config_fails_before_sampling(sampling_forbidden, overrides, key):
    with pytest.raises(ExperimentError, match=f"^{key} "):
        small_config(**overrides)


@pytest.mark.parametrize("lines, key", [
    ("theta = 1e308 1e308\nmethods = lp closed_form\n", "theta"),
    ("theta = 0.5 -1\nmethods = lp lp closed_form\n", "methods"),
], ids=("overflowing_mean", "repeated_method"))
def test_unrunnable_config_exits_2(sampling_forbidden, tmp_path, capsys, lines, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nfamily = uniform\nv = 1 0 ; 1 1\nn = 10\nm = 20\n"
                   "seed = 314\n" + lines)
    assert cli_main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o.json")]) == 2
    assert f": {key} " in capsys.readouterr().err


def test_missing_output_directory_exits_2_before_sampling(sampling_forbidden, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nfamily = uniform\nv = 1 0 ; 1 1\nn = 10\nm = 20\n"
                   "seed = 314\ntheta = 0.5 -1\nmethods = lp closed_form\n")
    out = tmp_path / "missing" / "o.json"
    assert cli_main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: output directory {tmp_path / 'missing'} does not exist\n")
    assert list(tmp_path.rglob(".partial-*")) == []
