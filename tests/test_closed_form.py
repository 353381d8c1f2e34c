"""Closed-form fits: midrange, square replicated designs, Cramer, LSE."""

import numpy as np
import pytest

import minimaxreg as mr
from minimaxreg.errors import (
    EmptyGroupError,
    RankDeficientError,
    SingularDesignError,
    WrongShapeError,
)


class TestMidrangeFit:
    def test_two_points(self):
        assert mr.midrange_fit([1.0, 5.0]) == (3.0, 2.0)

    def test_constant(self):
        assert mr.midrange_fit([4.0, 4.0, 4.0]) == (4.0, 0.0)

    def test_three_points(self):
        assert mr.midrange_fit([-2.0, 0.0, 3.0]) == (0.5, 2.5)

    def test_empty(self):
        with pytest.raises(EmptyGroupError):
            mr.midrange_fit([])

    def test_midrange_is_the_minimizer(self):
        rng = np.random.default_rng(31)
        values = rng.normal(size=25)
        s, alpha = mr.midrange_fit(values)
        assert np.abs(values - s).max() == pytest.approx(alpha)
        for delta in (-0.3, -0.01, 0.01, 0.3):
            assert np.abs(values - (s + delta)).max() > alpha


class TestSolveCramer:
    def test_identity(self):
        rhs = np.array([2.0, -1.0, 0.5])
        assert np.array_equal(mr.solve_cramer(np.eye(3), rhs), rhs)

    def test_hand_solve(self):
        assert np.allclose(mr.solve_cramer([[1.0, 0.0], [1.0, 1.0]], [1.0, 2.0]), [1.0, 1.0])

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            V = rng.normal(size=(4, 4)) + 2 * np.eye(4)
            rhs = rng.normal(size=4)
            assert np.abs(mr.solve_cramer(V, rhs) - np.linalg.solve(V, rhs)).max() < 1e-10

    def test_stack_equals_one_det_per_matrix(self, monkeypatch):
        rng = np.random.default_rng(39)
        for q in (1, 2, 3, 5):
            V = rng.normal(size=(q, q)) + 2 * np.eye(q)
            rhs = rng.normal(size=(11, q)) * 1e3
            want = np.empty_like(rhs)
            for r, row in enumerate(rhs):
                for i in range(q):
                    Vi = V.copy()
                    Vi[:, i] = row
                    want[r, i] = np.linalg.det(Vi) / np.linalg.det(V)
            assert np.array_equal(mr.solve_cramer(V, rhs), want)
            # Chunks of a few replications give the same bits.
            monkeypatch.setattr("minimaxreg.closed_form._DET_CHUNK_FLOATS", 3 * q**3)
            assert np.array_equal(mr.solve_cramer(V, rhs), want)
            monkeypatch.undo()

    def test_near_singular_carries_det(self):
        V = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        with pytest.raises(SingularDesignError) as err:
            mr.solve_cramer(V, [1.0, 1.0])
        assert err.value.det is not None


class TestClosedFormFit:
    def test_location_identities(self):
        rng = np.random.default_rng(33)
        theta = 1.75
        eps = rng.normal(size=40)
        ds = mr.simulate_dataset(mr.ReplicatedDesign([[1.0]], 40), [theta], eps)
        fit = mr.closed_form_fit(ds)
        ext = mr.group_extremes(ds.errors())
        assert abs(fit.d_hat[0] - ext.q[0]) < 1e-14
        assert abs(fit.delta_hat - ext.r[0] / 2.0) < 1e-14

    def test_simple_regression_offset_formulas(self):
        rng = np.random.default_rng(34)
        v1, v2 = -0.5, 2.0
        V = np.array([[1.0, v1], [1.0, v2]])
        ds = mr.simulate_dataset(mr.ReplicatedDesign(V, 25), [0.3, -0.9], rng.normal(size=50))
        fit = mr.closed_form_fit(ds)
        ext = mr.group_extremes(ds.errors(), ds.design.group_index())
        q1, q2 = ext.q
        assert abs(fit.d_hat[1] - (q2 - q1) / (v2 - v1)) < 1e-12
        assert abs(fit.d_hat[0] - (q1 * v2 - q2 * v1) / (v2 - v1)) < 1e-12
        assert fit.delta_hat == ext.r.max() / 2.0

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

    def test_real_data_mode_matches_simulation_mode(self):
        rng = np.random.default_rng(36)
        V = np.array([[1.0, 0.0], [1.0, 1.0]])
        ds = mr.simulate_dataset(mr.ReplicatedDesign(V, 8), [2.0, -1.0], rng.normal(size=16))
        blind = mr.Dataset(ds.design, ds.y)  # same data, theta withheld
        fit_known = mr.closed_form_fit(ds)
        fit_blind = mr.closed_form_fit(blind)
        assert np.abs(fit_known.theta_hat - fit_blind.theta_hat).max() < 1e-12
        assert fit_known.delta_hat == fit_blind.delta_hat
        assert fit_blind.d_hat is None

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
    def test_rows_equal_one_dataset_fits(self):
        rng = np.random.default_rng(40)
        V = np.array([[1.0, -0.5], [1.0, 2.0]])
        rd = mr.ReplicatedDesign(V, 9)
        datasets = [mr.Dataset(rd, rng.normal(size=18)) for _ in range(6)]
        ext = [mr.group_extremes(ds.y, rd.group_index()) for ds in datasets]
        z, w = [e.z for e in ext], [e.w for e in ext]
        # Without true parameters y stands in for the errors.
        delta, theta = mr.closed_form_batch(V, z, w, z, w)
        for i, ds in enumerate(datasets):
            fit = mr.closed_form_fit(ds)
            assert delta[i] == fit.delta_hat
            assert np.array_equal(theta[i], fit.theta_hat)

    def test_singular_levels_fail_the_whole_stack(self):
        V = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(SingularDesignError):
            mr.closed_form_batch(V, np.ones((5, 2)), np.zeros((5, 2)), np.ones((5, 2)),
                                 np.zeros((5, 2)))


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
