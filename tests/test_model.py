"""Core data structures: residuals, level extremes, and dataset invariants."""

import numpy as np
import pytest

import minimaxreg as mr
from minimaxreg.errors import DimensionMismatchError
from minimaxreg.model import group_extremes_replicated


class TestResiduals:
    def test_intercept_pair(self):
        ds = mr.Dataset(mr.Design(np.ones((2, 1))), [3.0, 5.0])
        assert np.array_equal(mr.residuals(ds, [4.0]), [-1.0, 1.0])

    def test_true_theta_recovers_stored_errors_bitwise(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 3))
        theta = rng.normal(size=3)
        eps = rng.normal(size=20)
        ds = mr.simulate_dataset(mr.Design(X), theta, eps)
        # The engine's errors y - mu, with mu = X @ theta, have these bits.
        assert np.array_equal(mr.residuals(ds, theta), ds.y - X @ theta)
        assert np.allclose(mr.residuals(ds, theta), eps, atol=1e-12)

    def test_replicated_mean_is_one_value_per_level(self):
        rng = np.random.default_rng(3)
        V, theta = rng.normal(size=(10, 8)), rng.normal(size=8)
        design = mr.ReplicatedDesign(V, 37)
        # The expanded product rounds differently within some level here.
        expanded = (design.matrix() @ theta).reshape(10, 37)
        assert not np.all(expanded == expanded[:, :1])
        mean = np.repeat(V @ theta, 37)
        eps = rng.normal(size=design.n_obs)
        ds = mr.simulate_dataset(design, theta, eps)
        assert np.array_equal(ds.y, mean + eps)
        assert np.array_equal(mr.residuals(ds, theta), ds.y - mean)

    def test_zero_theta_returns_y(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        ds = mr.Dataset(mr.Design(X), y)
        assert np.array_equal(mr.residuals(ds, np.zeros(2)), y)

    def test_dimension_mismatch(self):
        ds = mr.Dataset(mr.Design(np.ones((2, 1))), [0.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            mr.residuals(ds, [1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            mr.residuals(ds, [np.nan])


class TestMaxAbsResidual:
    def test_examples(self):
        ones = mr.Design(np.ones((2, 1)))
        assert mr.max_abs_residual(mr.Dataset(ones, [-1.0, 1.0]), [0.0]) == 1.0
        assert mr.max_abs_residual(mr.Dataset(ones, [0.0, 0.0]), [0.0]) == 0.0
        three = mr.Design(np.ones((3, 1)))
        assert mr.max_abs_residual(mr.Dataset(three, [2.0, -7.0, 3.0]), [0.0]) == 7.0


class TestGroupExtremesReplicated:
    def test_level_max_and_min(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=40)
        z, w = group_extremes_replicated(values, 4, 10)
        assert np.array_equal(z, [max(values[l * 10:(l + 1) * 10]) for l in range(4)])
        assert np.array_equal(w, [min(values[l * 10:(l + 1) * 10]) for l in range(4)])
        # Order within a level is irrelevant; negation swaps max and min.
        perm = np.concatenate([l * 10 + rng.permutation(10) for l in range(4)])
        zp, wp = group_extremes_replicated(values[perm], 4, 10)
        assert np.array_equal(zp, z) and np.array_equal(wp, w)
        zn, wn = group_extremes_replicated(-values, 4, 10)
        assert np.array_equal(zn, -w) and np.array_equal(wn, -z)


class TestDesigns:
    def test_replicated_requires_distinct_levels(self):
        with pytest.raises(DimensionMismatchError):
            mr.ReplicatedDesign([[1.0, 0.0], [1.0, 0.0]], 3)

    def test_replicated_expansion_is_lossless(self):
        rd = mr.ReplicatedDesign([[1.0, 0.0], [1.0, 2.0]], 3)
        assert rd.n_obs == 6
        assert np.array_equal(rd.matrix(), np.repeat(rd.levels, 3, axis=0))

    def test_wide_design_allowed(self):
        # N >= q is not required for the minimax problem to be well posed.
        mr.Design(np.ones((1, 4)))

    def test_design_rejects_nonfinite(self):
        with pytest.raises(DimensionMismatchError):
            mr.Design([[1.0], [np.inf]])

    def test_empty_design_rejected(self):
        with pytest.raises(DimensionMismatchError):
            mr.Design(np.empty((0, 1)))


class TestDataset:
    def test_length_checks(self):
        with pytest.raises(DimensionMismatchError):
            mr.Dataset(mr.Design(np.ones((2, 1))), [1.0])

    def test_immutability(self):
        ds = mr.Dataset(mr.Design(np.ones((2, 1))), [1.0, 2.0])
        with pytest.raises(ValueError):
            ds.y[0] = 7.0
        with pytest.raises(ValueError):
            ds.design.rows[0, 0] = 7.0


class TestFitOptimality:
    def test_any_theta_is_no_better_than_lp(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        ds = mr.Dataset(mr.Design(X), y)
        fit = mr.minimax_fit_lp(ds)
        for _ in range(100):
            delta = rng.normal(size=2)
            delta *= rng.uniform(0, 1) / np.linalg.norm(delta)
            probe = fit.theta_hat + delta
            assert mr.max_abs_residual(ds, probe) >= fit.delta_hat - 1e-9
