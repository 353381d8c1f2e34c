"""LP fitting path: row layout, solve, duals, and invariants."""

import dataclasses

import numpy as np
import pytest

import minimaxreg as mr
from bruteforce import brute_force_minimax
from minimaxreg.errors import (
    DimensionMismatchError,
    DualityGapError,
    SolverStatusError,
)
from minimaxreg.lp import _minimax_rows


def location_dataset(y):
    return mr.Dataset(mr.Design(np.ones((len(y), 1))), y)


def lp_solution(dataset):
    return mr.minimax_fit_lp(dataset).lp_solution


class TestBuildPrimal:
    def test_constraint_count_intercept(self):
        sol = lp_solution(location_dataset([3.0, 5.0]))
        assert sol.scheme == ("observation", 2)
        assert sol.dual.shape == (4,)
        assert sol.primal.shape == (2,)

    def test_constraint_count_replicated(self):
        rd = mr.ReplicatedDesign([[1.0, 0.0], [1.0, 1.0]], 3)
        sol = lp_solution(mr.Dataset(rd, np.zeros(6)))
        # The 12 observation rows reduce to the 2k = 4 level-extreme rows.
        assert sol.scheme == ("group", 2)
        assert sol.dual.shape == (4,)

    def test_empty_dataset_impossible(self):
        with pytest.raises(DimensionMismatchError):
            mr.Design(np.empty((0, 2)))

    def test_row_layout(self):
        ds = mr.Dataset(mr.Design([[2.0]]), [5.0])
        G, h, scheme = _minimax_rows(ds)
        assert np.array_equal(G, [[2.0], [-2.0]])
        assert np.array_equal(h, [5.0, -5.0])
        assert lp_solution(ds).scheme == scheme == ("observation", 1)


class TestSimplexSolve:
    def test_intercept_only(self):
        sol = lp_solution(location_dataset([0.0, 4.0]))
        assert abs(sol.theta[0] - 2.0) < 1e-12
        assert abs(sol.delta - 2.0) < 1e-12

    def test_exact_interpolation(self):
        ds = mr.Dataset(mr.Design([[1.0, 0.0], [1.0, 1.0]]), [0.0, 1.0])
        sol = lp_solution(ds)
        assert abs(sol.value) < 1e-12
        assert np.allclose(sol.theta, [0.0, 1.0], atol=1e-12)

    def test_four_point_instance_matches_brute_force(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0.0, 2.0, 3.0, 7.0])
        ds = mr.Dataset(mr.Design(X), y)
        sol = lp_solution(ds)
        theta_bf, delta_bf = brute_force_minimax(X, y)
        assert delta_bf == 2.0  # frozen from the enumeration oracle
        assert abs(sol.value - delta_bf) < 1e-10
        # The optimum is non-unique here; the solver's point must be optimal.
        assert mr.max_abs_residual(ds, sol.theta) <= delta_bf + 1e-10

    def test_iteration_limit_status(self, one_pivot_simplex):
        ds = location_dataset([0.0, 4.0, 1.0])
        with pytest.raises(SolverStatusError) as err:
            lp_solution(ds)
        assert err.value.status == "iteration_limit"


class TestMinimaxFit:
    def test_location_model_identities(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            theta = float(rng.normal() * 5)
            eps = rng.normal(size=n)
            ds = mr.simulate_dataset(mr.Design(np.ones((n, 1))), [theta], eps)
            fit = mr.minimax_fit_lp(ds)
            e = ds.errors()
            ext = mr.group_extremes(e)
            assert abs(fit.theta_hat[0] - theta - ext.q[0]) < 1e-12
            assert abs(fit.delta_hat - ext.r[0] / 2.0) < 1e-12
            assert not fit.diagnostics["nonunique_suspected"]

    def test_intercept_bound(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n, q = int(rng.integers(3, 20)), int(rng.integers(1, 4))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))])
            ds = mr.simulate_dataset(mr.Design(X), rng.normal(size=q), rng.normal(size=n))
            fit = mr.minimax_fit_lp(ds)
            e = ds.errors()
            assert fit.delta_hat <= (e.max() - e.min()) / 2.0 + 1e-12

    def test_replicated_matches_closed_form(self):
        rng = np.random.default_rng(102)
        for _ in range(30):
            q = int(rng.integers(1, 4))
            V = rng.normal(size=(q, q))
            if abs(np.linalg.det(V)) < 0.1:
                continue
            n = int(rng.integers(2, 30))
            ds = mr.simulate_dataset(
                mr.ReplicatedDesign(V, n), rng.normal(size=q), rng.normal(size=q * n)
            )
            lp_fit = mr.minimax_fit_lp(ds)
            cf_fit = mr.closed_form_fit(ds)
            assert abs(lp_fit.delta_hat - cf_fit.delta_hat) < 1e-8
            if not lp_fit.diagnostics["nonunique_suspected"]:
                assert np.abs(lp_fit.theta_hat - cf_fit.theta_hat).max() < 1e-8

    def test_gamma_diagnostic(self):
        rng = np.random.default_rng(103)
        V = np.array([[1.0, 0.0], [1.0, 1.0]])
        ds = mr.simulate_dataset(mr.ReplicatedDesign(V, 4), [0.5, -0.5], rng.normal(size=8))
        fit = mr.minimax_fit_lp(ds)
        assert np.allclose(fit.diagnostics["gamma"], V @ fit.d_hat)

    def test_solver_failure_raises(self, one_pivot_simplex):
        ds = location_dataset([0.0, 4.0, 1.0])
        with pytest.raises(SolverStatusError):
            mr.minimax_fit_lp(ds)

    def test_remark3_bound_underdetermined(self):
        rng = np.random.default_rng(104)
        for _ in range(40):
            q = int(rng.integers(2, 5))
            k = int(rng.integers(1, q))
            V = rng.normal(size=(k, q))
            n = int(rng.integers(2, 10))
            ds = mr.simulate_dataset(
                mr.ReplicatedDesign(V, n), rng.normal(size=q), rng.normal(size=k * n)
            )
            fit = mr.minimax_fit_lp(ds)
            ext = mr.group_extremes(ds.errors(), ds.design.group_index())
            assert fit.delta_hat <= ext.r.max() / 2.0 + 1e-12
            # With fewer levels than parameters, theta cannot be pinned down.
            assert fit.diagnostics["nonunique_suspected"]


class TestDualCertificate:
    def test_intercept_hand_enumeration(self):
        y = [0.0, 4.0]
        ds = location_dataset(y)
        fit = mr.minimax_fit_lp(ds)
        cert = mr.dual_certificate(ds, fit.lp_solution)
        # Mass half on the max-side constraint of the largest y, half on the
        # min side of the smallest; value (Z - W) / 2 = 2.
        assert np.allclose(cert.u, [0.0, 0.5])
        assert np.allclose(cert.u_prime, [0.5, 0.0])
        assert abs(cert.value - 2.0) < 1e-12
        assert cert.max_infeasibility() < 1e-12

    def test_interpolation_zero_gap(self):
        ds = mr.Dataset(mr.Design([[1.0, 0.0], [1.0, 1.0]]), [0.0, 1.0])
        fit = mr.minimax_fit_lp(ds)
        cert = mr.dual_certificate(ds, fit.lp_solution)
        assert abs(fit.delta_hat) < 1e-12
        assert abs(cert.value) < 1e-12
        assert abs(cert.normalization_residual) < 1e-12

    def test_random_replicated_strong_duality(self):
        rng = np.random.default_rng(105)
        for _ in range(30):
            q = int(rng.integers(1, 4))
            V = rng.normal(size=(q + 1, q))
            n = int(rng.integers(2, 12))
            ds = mr.simulate_dataset(
                mr.ReplicatedDesign(V, n), rng.normal(size=q), rng.normal(size=(q + 1) * n)
            )
            fit = mr.minimax_fit_lp(ds)
            cert = mr.dual_certificate(ds, fit.lp_solution)
            assert cert.gap <= 1e-8
            assert cert.max_infeasibility() <= 1e-8

    def test_group_rows_equal_full_rows(self):
        rng = np.random.default_rng(106)
        for _ in range(40):
            q = int(rng.integers(1, 5))
            k = int(rng.integers(1, q + 3))
            rd = mr.ReplicatedDesign(rng.normal(size=(k, q)), int(rng.integers(2, 8)))
            ds = mr.simulate_dataset(rd, rng.normal(size=q), rng.normal(size=rd.n_obs))
            full = mr.Dataset(mr.Design(rd.matrix()), ds.y)
            group_fit, full_fit = mr.minimax_fit_lp(ds), mr.minimax_fit_lp(full)
            assert group_fit.lp_solution.scheme == ("group", k)
            assert full_fit.lp_solution.scheme == ("observation", rd.n_obs)
            assert abs(group_fit.delta_hat - full_fit.delta_hat) < 1e-10
            for data, fit in ((ds, group_fit), (full, full_fit)):
                cert = mr.dual_certificate(data, fit.lp_solution)
                assert cert.gap <= 1e-8
                assert cert.max_infeasibility() <= 1e-8

    def test_scheme_mismatch_raises(self):
        rd = mr.ReplicatedDesign([[1.0, 0.0], [1.0, 1.0]], 3)
        ds = mr.simulate_dataset(rd, [1.0, -1.0], np.arange(6.0))
        full = mr.Dataset(mr.Design(rd.matrix()), ds.y)
        with pytest.raises(DimensionMismatchError):
            mr.dual_certificate(full, mr.minimax_fit_lp(ds).lp_solution)
        with pytest.raises(DimensionMismatchError):
            mr.dual_certificate(ds, mr.minimax_fit_lp(full).lp_solution)
        # A plain design of k rows has as many duals as the group scheme.
        plain = mr.Dataset(mr.Design(rd.levels), [0.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            mr.dual_certificate(plain, mr.minimax_fit_lp(ds).lp_solution)

    def test_certifies_at_large_scale(self):
        # Rounding alone puts the gap of y ~ 1e10 near 1e-6, far above 1e-8.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(50, 3))
            ds = mr.Dataset(mr.Design(X), rng.normal(size=50) * 1e10)
            cert = mr.dual_certificate(ds, mr.minimax_fit_lp(ds).lp_solution)
            assert cert.gap <= 1e-8 * np.abs(ds.y).max()
            assert cert.max_infeasibility() <= 1e-8

    def test_corrupted_solution_raises_gap_error(self):
        # Delta shifted by 1 in the units of the data, at unit and large scale.
        for scale in (1.0, 1e10):
            ds = location_dataset([0.0, 4.0 * scale])
            fit = mr.minimax_fit_lp(ds)
            bad = dataclasses.replace(
                fit.lp_solution, primal=fit.lp_solution.primal + np.array([0.0, scale])
            )
            with pytest.raises(DualityGapError):
                mr.dual_certificate(ds, bad)


class TestEquivariance:
    def test_scale_and_shift(self):
        rng = np.random.default_rng(107)
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        ds = mr.Dataset(mr.Design(X), y)
        base = mr.minimax_fit_lp(ds)
        scaled = mr.minimax_fit_lp(mr.Dataset(mr.Design(X), 3.0 * y))
        assert abs(scaled.delta_hat - 3.0 * base.delta_hat) < 1e-9
        assert np.abs(scaled.theta_hat - 3.0 * base.theta_hat).max() < 1e-9
        shift = np.array([0.7, -1.2])
        shifted = mr.minimax_fit_lp(mr.Dataset(mr.Design(X), y + X @ shift))
        assert abs(shifted.delta_hat - base.delta_hat) < 1e-9
        assert np.abs(shifted.theta_hat - (base.theta_hat + shift)).max() < 1e-9

    def test_random_vs_brute_force(self):
        rng = np.random.default_rng(108)
        for _ in range(25):
            n, q = int(rng.integers(3, 9)), int(rng.integers(1, 3))
            X = rng.normal(size=(n, q))
            y = rng.normal(size=n) * 2
            ds = mr.Dataset(mr.Design(X), y)
            fit = mr.minimax_fit_lp(ds)
            _, delta_bf = brute_force_minimax(X, y)
            assert abs(fit.delta_hat - delta_bf) < 1e-9
