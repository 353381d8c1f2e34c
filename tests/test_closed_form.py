"""Closed-form fits: square replicated designs (solved by LU), LSE."""

import numpy as np
import pytest

import minimaxreg as mr
from minimaxreg.errors import (
    RankDeficientError,
    SingularDesignError,
    SolverStatusError,
    WrongShapeError,
)


def location_fits(values):
    """The one-dimensional minimax fit of ``values`` by the closed form on one
    level and by the LP on an intercept-only plain design."""
    n = len(values)
    return (mr.closed_form_fit(mr.Dataset(mr.ReplicatedDesign([[1.0]], n), values)),
            mr.minimax_fit_lp(mr.Dataset(mr.Design(np.ones((n, 1))), values)))


class TestLocationFit:
    @pytest.mark.parametrize("values, midrange, half_range", [
        ([1.0, 5.0], 3.0, 2.0),
        ([4.0, 4.0, 4.0], 4.0, 0.0),
        ([-2.0, 0.0, 3.0], 0.5, 2.5),
    ])
    def test_midrange_and_half_range(self, values, midrange, half_range):
        for fit in location_fits(values):
            assert (fit.theta_hat[0], fit.delta_hat) == (midrange, half_range)

    def test_midrange_is_the_minimizer(self):
        rng = np.random.default_rng(31)
        values = rng.normal(size=25)
        for fit in location_fits(values):
            s, alpha = fit.theta_hat[0], fit.delta_hat
            assert np.abs(values - s).max() == pytest.approx(alpha)
            for delta in (-0.3, -0.01, 0.01, 0.3):
                assert np.abs(values - (s + delta)).max() > alpha


class TestClosedFormFit:
    def test_location_identities(self):
        rng = np.random.default_rng(33)
        theta = 1.75
        eps = rng.normal(size=40)
        ds = mr.simulate_dataset(mr.ReplicatedDesign([[1.0]], 40), [theta], eps)
        fit = mr.closed_form_fit(ds)
        e = mr.residuals(ds, [theta])
        assert abs(fit.theta_hat[0] - theta - (e.max() + e.min()) / 2.0) < 1e-14
        assert abs(fit.delta_hat - (e.max() - e.min()) / 2.0) < 1e-14

    def test_simple_regression_offset_formulas(self):
        rng = np.random.default_rng(34)
        v1, v2 = -0.5, 2.0
        V = np.array([[1.0, v1], [1.0, v2]])
        theta = np.array([0.3, -0.9])
        ds = mr.simulate_dataset(mr.ReplicatedDesign(V, 25), theta, rng.normal(size=50))
        fit = mr.closed_form_fit(ds)
        e = mr.residuals(ds, theta).reshape(2, 25)
        z, w = e.max(axis=1), e.min(axis=1)
        q1, q2 = (z + w) / 2.0
        d_hat = fit.theta_hat - theta
        assert abs(d_hat[1] - (q2 - q1) / (v2 - v1)) < 1e-12
        assert abs(d_hat[0] - (q1 * v2 - q2 * v1) / (v2 - v1)) < 1e-12
        assert fit.delta_hat == (z - w).max() / 2.0

    def test_agrees_with_lp_on_random_square_designs(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            V = rng.normal(size=(3, 3))
            if abs(np.linalg.det(V)) < 0.1:
                continue
            ds = mr.simulate_dataset(
                mr.ReplicatedDesign(V, 10), rng.normal(size=3), rng.normal(size=30)
            )
            lp_fit = mr.minimax_fit_lp(ds)
            cf_fit = mr.closed_form_fit(ds)
            assert abs(lp_fit.delta_hat - cf_fit.delta_hat) < 1e-8
            assert mr.max_abs_residual(ds, cf_fit.theta_hat) <= lp_fit.delta_hat + 1e-8

    def test_wrong_shape(self):
        ds = mr.simulate_dataset(
            mr.ReplicatedDesign([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]], 2),
            [0.0, 0.0], np.zeros(6),
        )
        with pytest.raises(WrongShapeError):
            mr.closed_form_fit(ds)
        flat = mr.Dataset(mr.Design(np.ones((4, 1))), np.zeros(4))
        with pytest.raises(WrongShapeError):
            mr.closed_form_fit(flat)

    def test_singular_levels(self):
        ds = mr.simulate_dataset(
            mr.ReplicatedDesign([[1.0, 2.0], [2.0, 4.0]], 3), [0.0, 0.0], np.zeros(6)
        )
        with pytest.raises(SingularDesignError):
            mr.closed_form_fit(ds)

    def test_overflowing_range_raises_non_finite_as_the_lp_does(self):
        # Finite data whose level range, and so delta, overflows.
        ds = mr.Dataset(mr.ReplicatedDesign([[1.0]], 2), [1.7e308, -1.7e308])
        for fit in (mr.closed_form_fit, mr.minimax_fit_lp):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(SolverStatusError) as info:
                fit(ds)
            assert info.value.status == "non_finite"

    def test_scale_shift_equivariance_matches_lp(self):
        rng = np.random.default_rng(37)
        V = np.array([[1.0, -1.0], [1.0, 2.0]])
        rd = mr.ReplicatedDesign(V, 6)
        y = rng.normal(size=12)
        base = mr.closed_form_fit(mr.Dataset(rd, y))
        scaled = mr.closed_form_fit(mr.Dataset(rd, 2.5 * y))
        assert np.abs(scaled.theta_hat - 2.5 * base.theta_hat).max() < 1e-12
        assert abs(scaled.delta_hat - 2.5 * base.delta_hat) < 1e-12
        shift = np.array([1.0, -2.0])
        shifted = mr.closed_form_fit(mr.Dataset(rd, y + rd.matrix() @ shift))
        assert np.abs(shifted.theta_hat - (base.theta_hat + shift)).max() < 1e-12
        assert abs(shifted.delta_hat - base.delta_hat) < 1e-10


class TestClosedFormBatch:
    def test_identity(self):
        mid = np.array([[2.0, -1.0, 0.5]])
        delta, theta = mr.closed_form_batch(np.eye(3), mid + 1.0, mid - 1.0)
        assert np.array_equal(theta, mid)
        assert np.array_equal(delta, [1.0])

    def test_hand_solve(self):
        V = [[1.0, 0.0], [1.0, 1.0]]
        delta, theta = mr.closed_form_batch(V, [[1.5, 2.5]], [[0.5, 1.5]])
        assert np.allclose(theta, [[1.0, 1.0]])
        assert np.array_equal(delta, [0.5])

    def test_residual_attains_delta(self):
        # Over nonsingular V of scale 1e-2 to 1e3 and condition up to about
        # 3e3, the largest residual of theta exceeds delta only by rounding:
        # in the median, 2.2e-16 of max(1, max |y|) for these draws.
        rng = np.random.default_rng(43)
        excess = []
        for _ in range(400):
            q = int(rng.integers(2, 7))
            U = np.linalg.qr(rng.normal(size=(q, q)))[0]
            W = np.linalg.qr(rng.normal(size=(q, q)))[0]
            s = 10.0 ** rng.uniform(-2, 3) * 10.0 ** rng.uniform(0, 3.5, size=q)
            V = (U * s) @ W
            y = rng.normal(size=(2, q))
            y_max, y_min = y.max(axis=0), y.min(axis=0)
            delta, theta = mr.closed_form_batch(V, y_max[None], y_min[None])
            fitted = V @ theta[0]
            worst = np.maximum(y_max - fitted, fitted - y_min).max()
            excess.append((worst - delta[0]) / max(1.0, np.abs(y).max()))
        assert np.median(excess) <= 1e-15

    def test_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(39)
        for q in range(1, 7):
            V = rng.normal(size=(q, q)) + 2 * np.eye(q)
            y_min = rng.normal(size=(50, q)) * 1e3
            y_max = y_min + rng.exponential(size=(50, q))
            delta, theta = mr.closed_form_batch(V, y_max, y_min)
            for r in range(50):
                one = mr.closed_form_batch(V, y_max[r:r + 1], y_min[r:r + 1])
                assert one[0][0] == delta[r] and np.array_equal(one[1][0], theta[r])

    def test_near_singular_carries_det(self):
        V = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        with pytest.raises(SingularDesignError) as err:
            mr.closed_form_batch(V, [[1.0, 1.0]], [[1.0, 1.0]])
        assert err.value.det is not None

    def test_rows_equal_one_dataset_fits(self):
        rng = np.random.default_rng(40)
        V = np.array([[1.0, -0.5], [1.0, 2.0]])
        rd = mr.ReplicatedDesign(V, 9)
        datasets = [mr.Dataset(rd, rng.normal(size=18)) for _ in range(6)]
        y = np.array([ds.y.reshape(2, 9) for ds in datasets])
        delta, theta = mr.closed_form_batch(V, y.max(axis=2), y.min(axis=2))
        for i, ds in enumerate(datasets):
            fit = mr.closed_form_fit(ds)
            assert delta[i] == fit.delta_hat
            assert np.array_equal(theta[i], fit.theta_hat)

    def test_singular_levels_fail_the_whole_stack(self):
        V = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(SingularDesignError):
            mr.closed_form_batch(V, np.ones((5, 2)), np.zeros((5, 2)))


class TestLseFit:
    def test_intercept_only_is_mean(self):
        y = np.array([1.0, 2.0, 6.0])
        fit = mr.lse_fit(mr.Dataset(mr.Design(np.ones((3, 1))), y))
        assert abs(fit.theta_hat[0] - y.mean()) < 1e-12

    def test_interpolation_zero_residuals(self):
        ds = mr.Dataset(mr.Design([[1.0, 0.0], [1.0, 1.0]]), [0.0, 1.0])
        lse = mr.lse_fit(ds)
        mm = mr.minimax_fit_lp(ds)
        assert lse.delta_hat < 1e-12
        assert mm.delta_hat < 1e-12

    def test_orthogonality(self):
        rng = np.random.default_rng(38)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        fit = mr.lse_fit(mr.Dataset(mr.Design(X), y))
        assert np.abs(X.T @ (y - X @ fit.theta_hat)).max() <= 1e-8

    def test_rank_deficient(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(RankDeficientError):
            mr.lse_fit(mr.Dataset(mr.Design(X), np.zeros(5)))


def _lse_oracle_cases(count):
    """Random replicated datasets: q = 1-4, k >= q, theta up to 1e6, t(1.5) errors."""
    rng = np.random.default_rng(42)
    for _ in range(count):
        q = int(rng.integers(1, 5))
        k = q + int(rng.integers(0, 4))
        design = mr.ReplicatedDesign(rng.normal(size=(k, q)), int(rng.integers(1, 30)))
        theta = rng.normal(size=q) * 10.0 ** rng.uniform(0.0, 6.0)
        yield mr.simulate_dataset(design, theta, rng.standard_t(1.5, size=design.n_obs))


def _level_stats(ds):
    y = ds.y.reshape(ds.design.n_levels, ds.design.reps)
    return y.mean(axis=1), y.max(axis=1), y.min(axis=1)


class TestLseBatch:
    def test_matches_lstsq_on_the_expanded_design(self):
        for ds in _lse_oracle_cases(300):
            X = ds.design.matrix()
            theta, *_ = np.linalg.lstsq(X, ds.y, rcond=None)
            delta = np.abs(ds.y - X @ theta).max()
            fit = mr.lse_fit(ds)
            cond = np.linalg.cond(ds.design.levels)
            assert np.abs(fit.theta_hat - theta).max() <= (
                1e-12 * cond * max(1.0, np.abs(theta).max()))
            assert abs(fit.delta_hat - delta) <= 1e-12 * max(1.0, np.abs(ds.y).max())

    def test_rows_equal_one_row_calls_at_any_stack_size(self):
        datasets = list(_lse_oracle_cases(40))
        for ds in datasets:
            design = ds.design
            rng = np.random.default_rng(design.n_obs)
            stats = np.stack(_level_stats(ds))[:, None] + rng.normal(
                size=(3, 300, design.n_levels)) * 10.0
            full = mr.lse_batch(design, *stats)
            for size in (1, 7, 300):
                delta, theta = mr.lse_batch(design, *stats[:, :size])
                assert np.array_equal(delta, full[0][:size])
                assert np.array_equal(theta, full[1][:size])
            for r in (0, 6, 299):
                delta, theta = mr.lse_batch(design, *stats[:, r:r + 1])
                assert delta[0] == full[0][r] and np.array_equal(theta[0], full[1][r])
        for ds in datasets:
            fit = mr.lse_fit(ds)
            delta, theta = mr.lse_batch(ds.design, *(s[None] for s in _level_stats(ds)))
            assert fit.delta_hat == delta[0] and np.array_equal(fit.theta_hat, theta[0])

    def test_rank_cut_is_the_one_of_the_expanded_design(self):
        # s_min / s_max of V is about 1e-13: above lstsq's cut for N = 3,
        # below it for N = 30000, where the two columns are one.
        V = np.array([[1.0, 1.0], [1.0, 1.0 + 2e-13], [1.0, 1.0 + 4e-13]])
        for reps, identified in ((1, True), (10_000, False)):
            design = mr.ReplicatedDesign(V, reps)
            y = np.arange(design.n_obs, dtype=np.float64)
            rank = np.linalg.lstsq(design.matrix(), y, rcond=None)[2]
            assert (rank == 2) == identified
            stats = _level_stats(mr.Dataset(design, y))
            if identified:
                mr.lse_fit(mr.Dataset(design, y))
                mr.lse_batch(design, *(np.tile(s, (5, 1)) for s in stats))
                continue
            with pytest.raises(RankDeficientError):
                mr.lse_fit(mr.Dataset(design, y))
            with pytest.raises(RankDeficientError):
                mr.lse_batch(design, *(np.tile(s, (5, 1)) for s in stats))
