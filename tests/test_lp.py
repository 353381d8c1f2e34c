"""LP fitting path: row layout, solve, duals, and invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minimaxreg as mr
from bruteforce import brute_force_minimax
from minimaxreg import lp, simplex
from minimaxreg.errors import (
    DimensionMismatchError,
    DualityGapError,
    SolverStatusError,
)
from minimaxreg.lp import (
    NONUNIQUE_TOL,
    START_ROWS,
    _dual_system,
    _feasible_basis,
    _solve,
)


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
            e = mr.residuals(ds, [theta])
            assert abs(fit.theta_hat[0] - theta - (e.max() + e.min()) / 2.0) < 1e-12
            assert abs(fit.delta_hat - (e.max() - e.min()) / 2.0) < 1e-12
            assert not fit.diagnostics["nonunique_suspected"]

    def test_intercept_bound(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n, q = int(rng.integers(3, 20)), int(rng.integers(1, 4))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))])
            theta = rng.normal(size=q)
            ds = mr.simulate_dataset(mr.Design(X), theta, rng.normal(size=n))
            fit = mr.minimax_fit_lp(ds)
            e = mr.residuals(ds, theta)
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
            theta = rng.normal(size=q)
            ds = mr.simulate_dataset(mr.ReplicatedDesign(V, n), theta, rng.normal(size=k * n))
            fit = mr.minimax_fit_lp(ds)
            e = mr.residuals(ds, theta).reshape(k, n)
            assert fit.delta_hat <= (e.max(axis=1) - e.min(axis=1)).max() / 2.0 + 1e-12
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

    def test_support_rows_match_every_row(self):
        rng = np.random.default_rng(119)
        for _ in range(40):
            q = int(rng.integers(1, 7))
            n_obs = int(rng.choice([q + 1, 50, 900, 2500]))
            X = rng.normal(size=(n_obs, q))
            ds = mr.Dataset(mr.Design(X), X @ rng.normal(size=q) + rng.normal(size=n_obs))
            sol = lp_solution(ds)
            assert np.count_nonzero(sol.dual) <= q + 1
            cert = mr.dual_certificate(ds, sol)
            # The computation on every row: G = [X; -X], h = [y; -y].
            G, h = np.vstack([X, -X]), np.concatenate([ds.y, -ds.y])
            scale = max(1.0, float(np.abs(h).max()))
            assert abs(cert.value - h @ sol.dual) <= 1e-12 * scale
            assert abs(cert.gap - abs(h @ sol.dual - sol.delta)) <= 1e-12 * scale
            assert np.allclose(cert.zero_sum_residual, G.T @ sol.dual,
                               rtol=0.0, atol=1e-12 * float(np.abs(G).max()))
            assert cert.normalization_residual == float(sol.dual.sum() - 1.0)
            assert cert.min_multiplier == float(sol.dual.min())
            assert np.array_equal(cert.u, sol.dual[:n_obs])
            assert np.array_equal(cert.u_prime, sol.dual[n_obs:])
            # A solution of the same scheme kind but another N still raises.
            shorter = mr.Dataset(mr.Design(X[:-1]), ds.y[:-1])
            with pytest.raises(DimensionMismatchError):
                mr.dual_certificate(shorter, sol)

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
        # Delta shifted by 1 in the units of the data, at tiny, unit and
        # large scale.
        for scale in (1e-12, 1.0, 1e10):
            ds = location_dataset([0.0, 4.0 * scale])
            fit = mr.minimax_fit_lp(ds)
            bad = dataclasses.replace(
                fit.lp_solution, primal=fit.lp_solution.primal + np.array([0.0, scale])
            )
            with pytest.raises(DualityGapError):
                mr.dual_certificate(ds, bad)

    @pytest.mark.parametrize("reps, shift, row", [
        (None, 1.0, "observation row 0"), (None, -1.0, "observation row 1"),
        (2, 1.0, "group row 0"), (2, -1.0, "group row 0")],
        ids=["plain_up", "plain_down", "replicated_lower", "replicated_upper"])
    def test_theta_off_the_optimum_raises_gap_error(self, reps, shift, row):
        # theta moved by 1e-9 in the units of the data, Delta and the duals
        # kept: the dual side still holds, but one row's residual exceeds
        # Delta by the shift, far beyond its rounding bound. A replicated
        # design's one level has its max above and its min below.
        for scale in (1e-12, 1.0, 1e10):
            y = [0.0, 4.0 * scale]
            ds = location_dataset(y) if reps is None else \
                mr.Dataset(mr.ReplicatedDesign([[1.0]], reps), y)
            sol = lp_solution(ds)
            moved = sol.primal + np.array([shift * 1e-9 * scale, 0.0])
            bad = dataclasses.replace(sol, primal=moved)
            with pytest.raises(DualityGapError, match=row) as info:
                mr.dual_certificate(ds, bad)
            assert info.value.gap == pytest.approx(1e-9 * scale, rel=1e-6)

    def test_overflowing_residual_raises_gap_error(self):
        # x.theta overflows, so the residual and its rounding bound are both
        # inf: the row is refused all the same.
        ds = mr.Dataset(mr.Design([[1e300], [1e300]]), [0.0, 4.0])
        sol = lp_solution(ds)
        bad = dataclasses.replace(sol, primal=sol.primal + np.array([1e10, 0.0]))
        with pytest.raises(DualityGapError, match="observation row 0 has residual inf"):
            mr.dual_certificate(ds, bad)

    def test_exactly_fittable_design_certifies(self):
        # A design of acceptance criterion 4 that two rows fit exactly: the
        # dual value is -4.16e-18 and theta's residuals are a few eps, all
        # within rounding of it.
        X = [[1.0, 1.3174478827476575, 0.8715156857070906],
             [1.0, -0.3657158230647098, 2.114478654186397]]
        ds = mr.Dataset(mr.Design(X), [0.9250135780095811, 1.8657667977215162])
        sol = lp_solution(ds)
        assert -1e-17 < sol.value < 0.0 and sol.delta == 0.0
        assert 0.0 < np.abs(mr.residuals(ds, sol.theta)).max() <= 1e-15
        cert = mr.dual_certificate(ds, sol)
        assert cert.gap <= 1e-15 and cert.max_infeasibility() <= 1e-15


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


def cold_reference(X, y):
    """The simplex on all 2N observation rows from ``_feasible_basis``, read
    at its sorted basis.

    Returns (theta, delta, dual, degenerate), or None when the simplex stops
    short of the optimum.
    """
    n, q = X.shape
    A = np.empty((q + 1, 2 * n))
    A[:q, :n], A[:q, n:], A[q] = X.T, -X.T, 1.0
    b = np.zeros(q + 1)
    b[q] = 1.0
    h = np.concatenate([y, -y])
    try:
        start = simplex.start_at(A, _feasible_basis(X))
        res = simplex.solve_standard_form(A, b, -h, start=start)
    except np.linalg.LinAlgError:
        return None
    if res.status != simplex.OPTIMAL:
        return None
    cols = np.sort(res.basis)
    real = cols < 2 * n
    B = np.hstack([A, np.eye(q + 1)])[:, cols]
    c = np.concatenate([-h, np.zeros(q + 1)])
    u_B = np.linalg.solve(B, b)
    primal = 0.0 - np.linalg.solve(B.T, c[cols])
    dual = np.zeros(2 * n)
    dual[cols[real]] = u_B[real]
    h_B = np.where(real, -c[cols], 0.0)
    degenerate = bool(np.any(np.where(real, u_B, 0.0) <= NONUNIQUE_TOL))
    return primal[:-1], float(h_B @ u_B), dual, degenerate


@pytest.fixture
def solve_calls(monkeypatch):
    """Count the simplex solves (working-set rounds) of each fit."""
    calls = []
    solve = simplex.solve_standard_form

    def counted(A, b, c, **kwargs):
        calls.append(A.shape[1] // 2)
        return solve(A, b, c, **kwargs)

    monkeypatch.setattr(simplex, "solve_standard_form", counted)
    return calls


def plain_design(rng, n, q):
    if rng.random() < 0.5:
        return np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))])
    return rng.normal(size=(n, q))


def assert_certified(ds, sol):
    # dual_certificate raises DualityGapError beyond its scaled gap tolerance.
    cert = mr.dual_certificate(ds, sol)
    assert cert.max_infeasibility() <= 1e-8


def rounds_by_the_growth_rule(monkeypatch, X, y):
    """Fit the plain design (X, y) and check every working-set round against
    the growth rule: all the rows flagged by a round's point join, or, when
    they outnumber the set's rows, as many of the most violated as the set
    holds, a NaN residual counting as infinite; a failed subset solve gives
    way to the solve of every row, and the last round flags none. Returns
    the fit, None if it raised SolverStatusError, and each solve's row
    count."""
    points = []
    solve = lp._solve

    def recorded(M, upper, lower, basis, max_iter):
        points.append([M, None])
        out = solve(M, upper, lower, basis, max_iter)
        points[-1][1] = out[3]
        return out

    monkeypatch.setattr(lp, "_solve", recorded)
    try:
        fit = mr.minimax_fit_lp(mr.Dataset(mr.Design(X), y))
    except SolverStatusError:
        fit = None
    n = len(y)
    rows = np.arange(0, n, -(-n // START_ROWS))
    for i, (M, primal) in enumerate(points):
        assert np.array_equal(M, X[rows]), i
        if primal is None or rows.size == n:
            rows = np.arange(n)
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.abs(y - X @ primal[:-1])
        r[np.isnan(r)] = np.inf
        flagged = np.setdiff1d(np.flatnonzero(~(r <= primal[-1])), rows)
        if i == len(points) - 1:
            assert flagged.size == 0
            break
        assert flagged.size > 0
        if flagged.size > rows.size:
            flagged = flagged[np.argsort(-r[flagged], kind="stable")[: rows.size]]
        rows = np.union1d(rows, flagged)
    return fit, [len(M) for M, _ in points]


class TestWorkingSet:
    def test_nondegenerate_designs_match_cold_simplex_bit_for_bit(self, solve_calls):
        rng = np.random.default_rng(110)
        scales = iter(np.tile(10.0 ** np.arange(-6, 11), 10))
        compared = multi_round = 0
        for n in (1, 2, 3, 5, 150, START_ROWS, START_ROWS + 1, 1500, 3000, 5000):
            for q in range(1, 7):
                X = plain_design(rng, n, q)
                y = (X @ rng.normal(size=q) + rng.standard_t(3, size=n)) * next(scales)
                ds = mr.Dataset(mr.Design(X), y)
                ref = cold_reference(X, y)
                if ref is None:
                    # Only a design solved whole can repeat the reference's failure.
                    assert n <= START_ROWS
                    with pytest.raises(SolverStatusError):
                        mr.minimax_fit_lp(ds)
                    continue
                theta, delta, dual, degenerate = ref
                if degenerate:
                    continue
                solve_calls.clear()
                sol = mr.minimax_fit_lp(ds).lp_solution
                multi_round += len(solve_calls) > 1
                compared += 1
                assert sol.scheme == ("observation", n)
                assert np.array_equal(sol.theta, theta), (n, q)
                assert sol.value == delta, (n, q)
                assert np.array_equal(sol.dual, dual), (n, q)
                assert sol.degenerate_basis is False
        assert compared >= 40 and multi_round >= 15

    @pytest.mark.parametrize("kind", ["unbalanced_levels", "integer_ties", "rank_deficient"])
    def test_degenerate_designs_match_delta_and_certify(self, kind):
        rng = np.random.default_rng(["unbalanced_levels", "integer_ties",
                                     "rank_deficient"].index(kind) + 111)
        compared = 0
        for trial in range(30):
            q = int(rng.integers(1, 6))
            if kind == "unbalanced_levels":
                k = int(rng.integers(1, q + 4))
                X = np.repeat(rng.normal(size=(k, q)), rng.integers(1, 400, size=k), axis=0)
                X = X[rng.permutation(len(X))]
                y = rng.normal(size=len(X)) * 10.0 ** rng.uniform(-6, 10)
            elif kind == "integer_ties":
                X = rng.integers(-3, 4, size=(int(rng.integers(2, 3000)), q)).astype(float)
                X[:, 0] = 1.0
                y = rng.integers(-5, 6, size=len(X)) * 10.0 ** (trial % 16 - 6)
            else:
                rank = int(rng.integers(1, q + 1))
                X = rng.normal(size=(int(rng.integers(2, 3000)), rank)) @ rng.normal(size=(rank, q))
                X[:, -1] = X[:, 0]
                y = rng.normal(size=len(X)) * 10.0 ** rng.uniform(-6, 10)
            ds = mr.Dataset(mr.Design(X), y)
            ref = cold_reference(X, y)
            try:
                sol = mr.minimax_fit_lp(ds).lp_solution
            except SolverStatusError:
                # A failed subset solve gives way to the solve of every row,
                # so a fit fails only with it.
                assert ref is None
                continue
            assert_certified(ds, sol)
            if ref is not None:
                compared += 1
                assert abs(sol.value - ref[1]) <= 1e-15 * max(1.0, np.abs(y).max())
        assert compared >= 25

    def test_integer_ties_at_large_scale_fit_and_certify(self, monkeypatch):
        # Reduced costs that are 0 in exact arithmetic round to about 1e-7 on
        # this design, above an absolute 1e-9; priced at the scale of the
        # costs, no solve cycles. Every solve is capped at 5000 pivots, so a
        # cycling one fails fast.
        solve = simplex.solve_standard_form

        def capped(A, b, c, *, max_iter=None, **kwargs):
            return solve(A, b, c, max_iter=min(max_iter or 5000, 5000), **kwargs)

        monkeypatch.setattr(simplex, "solve_standard_form", capped)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            n, q = 20_000, 7
            X = np.column_stack([np.ones(n), rng.integers(-3, 4, size=(n, q - 1))])
            y = 8.8e8 * rng.integers(-5, 6, size=n)
            ds = mr.Dataset(mr.Design(X.astype(float)), y)
            fit = mr.minimax_fit_lp(ds)
            assert abs(fit.delta_hat - 4.4e9) <= 1e-15 * 4.4e9, seed
            assert_certified(ds, fit.lp_solution)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_column_zero_on_the_start_rows(self, sign, solve_calls):
        # The last column is nonzero on one row outside the start, so the
        # start's sub-LP keeps an artificial pinned on that column's row; once
        # the row joins, the column must absorb its outlier of either sign.
        rng = np.random.default_rng(117)
        n, q = 2 * START_ROWS, 3
        X = np.column_stack([np.ones(n), rng.normal(size=n), np.zeros(n)])
        X[1, -1] = 1.0
        y = X @ rng.normal(size=q) + rng.normal(size=n)
        y[1] += sign * 1e3
        ds = mr.Dataset(mr.Design(X), y)
        solve_calls.clear()
        sol = lp_solution(ds)
        assert solve_calls[0] < n and len(solve_calls) > 1
        ref = cold_reference(X, y)
        assert abs(sol.value - ref[1]) <= 1e-15 * max(1.0, np.abs(y).max())
        assert sol.value < 10.0
        assert_certified(ds, sol)

    def test_start_missing_every_active_row_ends_in_log_rounds(self, monkeypatch):
        rng = np.random.default_rng(114)
        n, q = 4096, 3
        X = plain_design(rng, n, q)
        y = X @ rng.normal(size=q) + rng.normal(size=n)
        base = mr.minimax_fit_lp(mr.Dataset(mr.Design(X), y))
        # The rows nearest the fit fill the start; the active rows come last.
        start = np.arange(0, n, -(-n // START_ROWS))
        closeness = np.argsort(np.abs(y - X @ base.theta_hat))
        order = np.empty(n, dtype=int)
        order[start] = closeness[: start.size]
        order[np.setdiff1d(np.arange(n), start)] = closeness[start.size:]
        ds = mr.Dataset(mr.Design(X[order]), y[order])
        fit, sizes = rounds_by_the_growth_rule(monkeypatch, X[order], y[order])
        dual = fit.lp_solution.dual
        active = np.flatnonzero(dual[:n] + dual[n:])
        assert active.size == q + 1 and not np.isin(active, start).any()
        # More rows are violated than the start holds: as many of the most
        # violated join as it holds, so the set doubles.
        assert sizes[1] == 2 * start.size
        assert len(sizes) <= 1 + np.log2(n)
        assert abs(fit.delta_hat - base.delta_hat) <= 1e-12 * base.delta_hat
        assert_certified(ds, fit.lp_solution)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_residual_pass_raises(self, solve_calls):
        # The start holds only y = 1.5e308; the residual of the one row at
        # -1.5e308 then overflows, and no point can take it in finitely.
        y = np.full(3 * START_ROWS, 1.5e308)
        y[-1] = -1.5e308
        with pytest.raises(SolverStatusError) as err:
            mr.minimax_fit_lp(location_dataset(y))
        assert err.value.status == "non_finite"
        assert len(solve_calls) > 1

    def test_capped_subset_solve_falls_back_to_every_row(self, monkeypatch, solve_calls):
        # A subset's solve stopped at its pivot cap gives way to the solve
        # of every row, which has the simplex's own cap.
        monkeypatch.setattr("minimaxreg.lp.SUBSET_PIVOTS", 0)
        rng = np.random.default_rng(118)
        n, q = 3 * START_ROWS, 3
        X = plain_design(rng, n, q)
        y = X @ rng.normal(size=q) + rng.normal(size=n)
        sol = lp_solution(mr.Dataset(mr.Design(X), y))
        assert solve_calls == [START_ROWS, n]
        theta, delta, dual, _ = cold_reference(X, y)
        assert np.array_equal(sol.theta, theta) and sol.value == delta
        assert np.array_equal(sol.dual, dual)

    def test_rounds_go_through_the_simplex_entry_point(self, one_pivot_simplex):
        rng = np.random.default_rng(115)
        X = plain_design(rng, 3000, 3)
        with pytest.raises(SolverStatusError) as err:
            mr.minimax_fit_lp(mr.Dataset(mr.Design(X), rng.normal(size=3000)))
        assert err.value.status == "iteration_limit"

    def test_first_round_starts_from_the_cache(self, monkeypatch, solve_calls):
        # Every cold start on at most START_ROWS rows is cached per row
        # matrix: a second fit on X meets the first round's start cached.
        rng = np.random.default_rng(119)
        n, q = 3 * START_ROWS, 3
        X = plain_design(rng, n, q)
        first, second = (mr.Dataset(mr.Design(X), X @ rng.normal(size=q) + rng.normal(size=n))
                         for _ in range(2))
        starts = []
        start_at = simplex.start_at

        def counted(A, basis):
            starts.append(A.shape[1] // 2)
            return start_at(A, basis)

        monkeypatch.setattr(simplex, "start_at", counted)
        lp._cached_dual_system.cache_clear()
        lp_solution(first)
        starts.clear()
        solve_calls.clear()
        warm = lp_solution(second)
        assert len(solve_calls) > 1 and starts == solve_calls[1:]
        lp._cached_dual_system.cache_clear()
        starts.clear()
        solve_calls.clear()
        cold = lp_solution(second)
        assert starts == solve_calls
        assert np.array_equal(warm.primal, cold.primal) and warm.value == cold.value
        assert np.array_equal(warm.dual, cold.dual)

    def test_rounds_grow_from_the_start(self, monkeypatch):
        rng = np.random.default_rng(116)
        n, q = 20_000, 4
        X = plain_design(rng, n, q)
        _, sizes = rounds_by_the_growth_rule(monkeypatch, X, X @ rng.normal(size=q)
                                             + rng.normal(size=n))
        assert sizes[0] == START_ROWS and len(sizes) > 1
        assert sizes[-1] < 2 * START_ROWS

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_residuals_join_first(self, monkeypatch):
        # 300 rows outside the start carry regressors of 1e308, so at the
        # start's point, near (0, 10, -10, 10), their residual sums +inf and
        # -inf terms: NaN, or an infinity when the BLAS sums in another
        # order. Far more rows are violated than the set holds: those rows
        # join first, then the most violated of the rest. Rows of 1e308
        # leave the fit itself to rounding, so only the rounds are checked.
        rng = np.random.default_rng(121)
        n = 3 * START_ROWS
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        outside = np.flatnonzero(np.arange(n) % 3)
        noise = rng.normal(size=n)
        noise[outside] *= 10.0
        y = X @ np.array([0.0, 10.0, -10.0, 10.0]) + noise
        big = rng.choice(outside, size=300, replace=False)
        X[big, 1:] = 1e308
        y[big] = 0.0
        _, sizes = rounds_by_the_growth_rule(monkeypatch, X, y)
        assert sizes[:2] == [START_ROWS, 2 * START_ROWS]

    def test_lp_plain_shaped_fits_take_two_solves(self, solve_calls):
        # A count, not a clock: on the shape of the benchmark's plain fits (an
        # intercept, uniform regressors, gaussian errors) the rows that join
        # after the first solve leave none violated after the second.
        n, q = 100_000, 5
        for seed in range(11):
            rng = np.random.default_rng(seed)
            X = np.empty((n, q))
            X[:, 0] = 1.0
            X[:, 1:] = rng.random((n, q - 1))
            y = X @ rng.normal(size=q) + rng.normal(size=n)
            solve_calls.clear()
            mr.minimax_fit_lp(mr.Dataset(mr.Design(X), y))
            assert len(solve_calls) <= 2, seed


def highs_solution(X, y, lower=None):
    """(theta, Delta) of the minimax LP on the rows (X, y), solved by HiGHS;
    given ``lower``, on the two-sided rows (X, y, lower)."""
    from scipy.optimize import linprog

    n, q = X.shape
    ones = np.ones((n, 1))
    res = linprog(np.r_[np.zeros(q), 1.0],
                  A_ub=np.block([[-X, -ones], [X, -ones]]),
                  b_ub=np.r_[-y, y if lower is None else lower],
                  bounds=[(None, None)] * q + [(0, None)], method="highs")
    assert res.status == 0
    return res.x[:q], res.fun


def highs_delta(X, y, lower=None):
    return highs_solution(X, y, lower)[1]


def mixed_scale_design(seed=353):
    """200 gaussian rows in six columns whose scales run from 3.2e-4 to
    2.5e8, as regressors in different units do, with t(2) noise."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(200, 6)) * 10.0 ** rng.uniform(-8, 8, size=6)
    return X, X @ rng.normal(size=6) + rng.standard_t(2, size=200)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
def test_mixed_column_scales_reach_the_optimum():
    # Delta reaches the optimum, 8.87851 as HiGHS reads it, but theta's max
    # residual is 3.6e-9 relative above Delta: the absolute pivoting tests
    # work at X's scale, not at its columns'.
    X, y = mixed_scale_design()
    fit = mr.minimax_fit_lp(mr.Dataset(mr.Design(X), y))
    assert abs(fit.delta_hat - highs_delta(X, y)) <= 1e-6 * fit.delta_hat
    assert abs(np.abs(y - X @ fit.theta_hat).max() - fit.delta_hat) <= 1e-9 * fit.delta_hat


class TestReplicatedWorkingSet:
    """Replicated designs of more than START_ROWS levels take the working set
    on their two-sided level rows, as plain designs do on their rows."""

    def test_many_levels_take_rounds_and_match_highs(self, solve_calls):
        rng = np.random.default_rng(120)
        k, q = 3 * START_ROWS, 3
        V = np.column_stack([np.ones(k), rng.normal(size=(k, q - 1))])
        ds = mr.simulate_dataset(mr.ReplicatedDesign(V, 2), rng.normal(size=q),
                                 rng.standard_t(3, size=2 * k))
        solve_calls.clear()
        sol = lp_solution(ds)
        assert sol.scheme == ("group", k) and sol.dual.shape == (2 * k,)
        assert solve_calls[0] < k and len(solve_calls) > 1
        delta = highs_delta(ds.design.matrix(), ds.y)
        assert abs(sol.value - delta) <= 1e-12 * delta
        assert_certified(ds, sol)

    def test_only_lower_sides_violated(self, solve_calls):
        # Every level spans [-1, 1] except one outside the start, whose min
        # is -5. The start's fit is tau = 0, Delta = 1: every upper side
        # holds, and the lower side of that one level alone is violated.
        k = 2 * START_ROWS
        V = np.column_stack([np.ones(k), np.linspace(0.0, 1.0, k)])
        y = np.tile([1.0, -1.0], k)
        odd = 2 * (k // 3) + 1
        y[2 * odd + 1] = -5.0
        ds = mr.Dataset(mr.ReplicatedDesign(V, 2), y)
        solve_calls.clear()
        sol = lp_solution(ds)
        assert solve_calls == [START_ROWS, START_ROWS + 1]
        assert sol.dual[k + odd] > 0.0
        delta = highs_delta(ds.design.matrix(), y)
        assert abs(sol.value - delta) <= 1e-12 * delta
        assert_certified(ds, sol)


@st.composite
def multi_round_designs(draw):
    """Seeded plain designs well above START_ROWS rows, so fits take rounds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(START_ROWS + 1, 3 * START_ROWS))
    q = draw(st.integers(1, 4))
    X = plain_design(rng, n, q)
    return X, X @ rng.normal(size=q) + rng.standard_t(3, size=n)


class TestWorkingSetProperties:
    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(data=multi_round_designs(),
           c=st.floats(-1e3, 1e3).filter(lambda v: abs(v) >= 1e-3),
           b_seed=st.integers(0, 2**32 - 1))
    def test_affine_response_scales_delta(self, data, c, b_seed):
        X, y = data
        shift = X @ np.random.default_rng(b_seed).normal(size=X.shape[1])
        base = mr.minimax_fit_lp(mr.Dataset(mr.Design(X), y)).delta_hat
        moved = mr.minimax_fit_lp(mr.Dataset(mr.Design(X), c * y + shift)).delta_hat
        # Forming c * y + X b rounds each response once.
        slack = 1e-12 * (abs(c) * np.abs(y).max() + np.abs(shift).max())
        assert abs(moved - abs(c) * base) <= slack

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(data=multi_round_designs(), exponent=st.integers(-6, 10))
    def test_certificate_holds_at_every_scale(self, data, exponent):
        X, y = data
        ds = mr.Dataset(mr.Design(X), y * 10.0 ** exponent)
        assert_certified(ds, mr.minimax_fit_lp(ds).lp_solution)


@st.composite
def plain_designs(draw):
    """Seeded plain designs of 7 to 4000 rows: up to START_ROWS rows are
    solved whole, more on a working set."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(7, 4 * START_ROWS))
    q = draw(st.integers(1, 5))
    X = plain_design(rng, n, q)
    return X, X @ rng.normal(size=q) + rng.standard_t(3, size=n)


@st.composite
def highs_designs(draw):
    """Seeded plain designs of START_ROWS + 1 to 10^4 rows, q 1 to 6, with
    gaussian, t(1) or integer-tie responses; integer ties come on integer
    regressors, so rows repeat too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(START_ROWS + 1, 10 * START_ROWS))
    q = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["gaussian", "t1", "integer_ties"]))
    if kind == "integer_ties":
        X = rng.integers(-3, 4, size=(n, q)).astype(float)
        X[:, 0] = 1.0
        return X, rng.integers(-5, 6, size=n).astype(float)
    X = plain_design(rng, n, q)
    noise = rng.normal(size=n) if kind == "gaussian" else rng.standard_t(1, size=n)
    return X, X @ rng.normal(size=q) + noise


def certified_delta(X, y):
    ds = mr.Dataset(mr.Design(X), y)
    fit = mr.minimax_fit_lp(ds)
    assert_certified(ds, fit.lp_solution)
    return fit.delta_hat


class TestPlainDesignProperties:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=plain_designs(), k=st.integers(-20, 20))
    def test_delta_scales_by_powers_of_two_exactly(self, data, k):
        X, y = data
        assert certified_delta(X, 2.0**k * y) == 2.0**k * certified_delta(X, y)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=plain_designs(), k=st.integers(-200, 200))
    def test_delta_scales_by_far_powers_of_two_exactly(self, data, k):
        # No tolerance is floored at scale 1, so tiny data fit as unit data do.
        X, y = data
        assert certified_delta(X, 2.0**k * y) == 2.0**k * certified_delta(X, y)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=plain_designs(), perm_seed=st.integers(0, 2**32 - 1))
    def test_delta_ignores_row_order(self, data, perm_seed):
        X, y = data
        perm = np.random.default_rng(perm_seed).permutation(len(y))
        delta = certified_delta(X, y)
        assert abs(certified_delta(X[perm], y[perm]) - delta) <= 1e-12 * delta

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=plain_designs(), b_seed=st.integers(0, 2**32 - 1))
    def test_delta_ignores_a_fitted_shift(self, data, b_seed):
        X, y = data
        moved = y + X @ np.random.default_rng(b_seed).normal(size=X.shape[1]) * 10.0
        slack = 1e-9 * max(1.0, np.abs(moved).max())
        assert abs(certified_delta(X, moved) - certified_delta(X, y)) <= slack

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=plain_designs(), b_seed=st.integers(0, 2**32 - 1), k=st.integers(0, 12))
    def test_delta_ignores_a_far_fitted_shift(self, data, b_seed, k):
        # Pricing allows 64 roundings of max |y|, so a fit far from the
        # origin reaches the optimum the fit at it does.
        X, y = data
        moved = y + X @ np.random.default_rng(b_seed).normal(size=X.shape[1]) * 10.0**k
        slack = 64 * np.finfo(float).eps * np.abs(moved).max()
        assert abs(certified_delta(X, moved) - certified_delta(X, y)) <= slack

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(data=highs_designs())
    def test_delta_matches_highs(self, data):
        X, y = data
        delta = certified_delta(X, y)
        assert abs(delta - highs_delta(X, y)) <= 1e-9 * max(1.0, np.abs(y).max())


@st.composite
def row_matrices(draw):
    """Small two-sided rows (M, upper, lower): integer M with zero rows, an
    all-zero M, duplicate rows or rank deficiency, with fewer or more rows
    than columns, and plain (upper = lower) or level-range rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, q = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["zero_rows", "all_zero", "duplicates", "rank_deficient"]))
    M = rng.integers(-3, 4, size=(n, q)).astype(float)
    if kind == "zero_rows":
        M[rng.random(n) < 0.5] = 0.0
    elif kind == "all_zero":
        M[:] = 0.0
    elif kind == "duplicates":
        M = M[rng.integers(0, n, size=n)]
    else:
        M = rng.integers(-3, 4, size=(n, 1)) * rng.integers(-3, 4, size=(1, q)).astype(float)
    y = rng.normal(size=n) * 10.0 ** draw(st.integers(-3, 6))
    half_range = np.abs(rng.normal(size=n)) * np.abs(y).max() * draw(st.sampled_from([0.0, 1.0]))
    return M, y + half_range, y - half_range


class TestFeasibleBasis:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(rows=row_matrices())
    def test_start_is_a_feasible_nonsingular_basis_and_the_fit_matches_highs(self, rows):
        M, upper, lower = rows
        n, q = M.shape
        basis = _feasible_basis(M)
        A, b = _dual_system(M)
        B = np.hstack([A, np.eye(q + 1)])[:, basis]
        assert np.unique(basis).size == q + 1 == basis.size
        assert np.linalg.matrix_rank(B) == q + 1
        # The basic solution: 1/2 on both sides of one nonzero row (1 on one
        # column of an all-zero M), 0 on the artificials, exactly.
        x = np.where(basis < 2 * n, 0.5 if M.any() else 1.0, 0.0)
        assert np.array_equal(B @ x, b) and (x >= 0).all()
        assert np.allclose(np.linalg.solve(B, b), x, rtol=0, atol=1e-12)
        _, _, _, primal, value = _solve(M, upper, lower, None, None)
        tol = 1e-9 * max(1.0, np.abs(upper).max(), np.abs(lower).max())
        delta = highs_delta(M, upper, lower)
        assert abs(primal[-1] - delta) <= tol and abs(value - delta) <= tol

    @pytest.mark.parametrize("scale", [1e-6, 1e-8, 1e-10])
    def test_a_regressor_of_small_scale_is_fitted_with_a_certificate(self, scale):
        # The start's artificial on the regressor's dual row meets entries of
        # the regressor's scale; left pinned, it would hold theta_1 at 0.
        for n in (50, 500, 5000):
            for seed in range(3):
                rng = np.random.default_rng(seed)
                X = np.column_stack([np.ones(n), scale * rng.uniform(size=n)])
                ds = mr.Dataset(mr.Design(X), rng.normal(size=n))
                fit = mr.minimax_fit_lp(ds)
                assert not fit.diagnostics["nonunique_suspected"]
                # Zero-sum rows at each coordinate's own scale and no gap:
                # the dual value bounds every Delta from below, so the fit
                # is optimal. HiGHS's Delta may sit below the largest
                # residual of its theta, within its feasibility tolerance,
                # so the fit is held to that residual.
                cert = mr.dual_certificate(ds, fit.lp_solution)
                assert (np.abs(cert.zero_sum_residual) <= 1e-12 * np.abs(X).max(axis=0)).all()
                theta, _ = highs_solution(X, ds.y)
                highs_residual = mr.max_abs_residual(ds, theta)
                assert fit.delta_hat <= highs_residual * (1.0 + 1e-12)
