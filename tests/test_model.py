"""Core data structures: residuals, extremes, and dataset invariants."""

import numpy as np
import pytest

import minimaxreg as mr
from minimaxreg.errors import DimensionMismatchError, EmptyGroupError


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


class TestGroupExtremes:
    def test_single_group(self):
        ext = mr.group_extremes([-2.0, 0.0, 3.0])
        assert ext.z[0] == 3.0
        assert ext.w[0] == -2.0
        assert ext.r[0] == 5.0
        assert ext.q[0] == 0.5

    def test_constant_groups(self):
        ext = mr.group_extremes([1.0, 1.0, 4.0, 4.0], [0, 0, 1, 1])
        assert np.array_equal(ext.r, [0.0, 0.0])
        assert np.array_equal(ext.q, [1.0, 4.0])

    def test_uniform_support_bounds(self):
        values = mr.sample(mr.ErrorModel("uniform_symmetric"), 1000, 17)
        ext = mr.group_extremes(values)
        assert 0.0 < ext.r[0] < 2.0
        assert -1.0 < ext.q[0] < 1.0

    def test_errors(self):
        with pytest.raises(EmptyGroupError):
            mr.group_extremes([])
        with pytest.raises(EmptyGroupError):
            mr.group_extremes([1.0, 2.0], [0, 2])  # label 1 unpopulated
        with pytest.raises(DimensionMismatchError):
            mr.group_extremes([1.0, 2.0], [0])

    def test_concatenation_matches_global(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=60)
        labels = rng.integers(0, 4, size=60)
        labels[:4] = [0, 1, 2, 3]
        per_group = mr.group_extremes(values, labels)
        combined = mr.group_extremes(values)
        assert combined.z[0] == per_group.z.max()
        assert combined.w[0] == per_group.w.min()

    def test_negation_symmetry(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=40)
        labels = np.repeat(np.arange(4), 10)
        ext = mr.group_extremes(values, labels)
        neg = mr.group_extremes(-values, labels)
        assert np.array_equal(neg.q, -ext.q)
        assert np.array_equal(neg.r, ext.r)

    def test_replicated_order_irrelevant(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=30)
        labels = np.repeat(np.arange(3), 10)
        perm = rng.permutation(30)
        a = mr.group_extremes(values, labels)
        b = mr.group_extremes(values[perm], labels[perm])
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.w, b.w)


class TestDesigns:
    def test_replicated_requires_distinct_levels(self):
        with pytest.raises(DimensionMismatchError):
            mr.ReplicatedDesign([[1.0, 0.0], [1.0, 0.0]], 3)

    def test_replicated_expansion_is_lossless(self):
        rd = mr.ReplicatedDesign([[1.0, 0.0], [1.0, 2.0]], 3)
        assert rd.n_obs == 6
        assert np.array_equal(rd.matrix(), np.repeat(rd.levels, 3, axis=0))
        assert np.array_equal(rd.group_index(), [0, 0, 0, 1, 1, 1])

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
