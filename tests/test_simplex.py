"""Standard-form simplex engine: termination, statuses, degeneracy."""

import numpy as np
import pytest

import minimaxreg as mr
from minimaxreg import simplex


def test_basic_optimum():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x = 4, y = 0
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    res = simplex.solve_standard_form(A, [4.0, 6.0], [-3.0, -2.0, 0.0, 0.0])
    assert res.status == simplex.OPTIMAL
    assert abs(res.objective - (-12.0)) < 1e-12
    assert np.allclose(res.x, [4.0, 0.0, 0.0, 2.0])


def test_infeasible():
    res = simplex.solve_standard_form(np.array([[1.0, 1.0]]), [-1.0], [1.0, 1.0])
    assert res.status == simplex.INFEASIBLE


def test_unbounded():
    res = simplex.solve_standard_form(np.array([[1.0, -1.0]]), [0.0], [-1.0, 0.0])
    assert res.status == simplex.UNBOUNDED


# Beale's classic example, which cycles under pure Dantzig pricing without
# anti-cycling; its optimum is -0.05.
BEALE_A = np.array([
    [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
    [0.50, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
])
BEALE_C = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]


def test_beale_cycling_instance_terminates():
    res = simplex.solve_standard_form(BEALE_A, [0.0, 0.0, 1.0], BEALE_C)
    assert res.status == simplex.OPTIMAL
    assert abs(res.objective - (-0.05)) < 1e-12
    assert res.iterations == 6


def test_beale_terminates_under_blands_rule(monkeypatch):
    # With a stall limit of 1, every degenerate pivot switches to Bland's
    # rule, whose path takes 5 pivots against Dantzig pricing's 6.
    monkeypatch.setattr(simplex, "STALL_LIMIT", 1)
    res = simplex.solve_standard_form(BEALE_A, [0.0, 0.0, 1.0], BEALE_C)
    assert res.status == simplex.OPTIMAL
    assert abs(res.objective - (-0.05)) < 1e-12
    assert res.iterations == 5


def test_blands_rule_fits_integer_ties_to_the_default_delta(monkeypatch):
    rng = np.random.default_rng(112)
    datasets = []
    for trial in range(20):
        q = int(rng.integers(1, 5))
        X = rng.integers(-3, 4, size=(int(rng.integers(2, 400)), q)).astype(float)
        X[:, 0] = 1.0
        y = rng.integers(-5, 6, size=len(X)) * 10.0 ** (trial % 7 - 3)
        datasets.append(mr.Dataset(mr.Design(X), y))
    pivots = []
    solve = simplex.solve_standard_form

    def counted(A, b, c, **kwargs):
        res = solve(A, b, c, **kwargs)
        pivots[-1] += res.iterations
        return res

    monkeypatch.setattr(simplex, "solve_standard_form", counted)
    for ds in datasets:
        pivots.append(0)
        default = mr.minimax_fit_lp(ds)
        with monkeypatch.context() as patch:
            patch.setattr(simplex, "STALL_LIMIT", 1)
            pivots.append(0)
            bland = mr.minimax_fit_lp(ds)
        # dual_certificate raises DualityGapError beyond its scaled gap tolerance.
        assert mr.dual_certificate(ds, bland.lp_solution).max_infeasibility() <= 1e-8
        assert abs(bland.delta_hat - default.delta_hat) <= 1e-15 * max(1.0, np.abs(ds.y).max())
    # Bland's rule took another path on some designs.
    assert pivots[0::2] != pivots[1::2]


def test_iteration_cap():
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    res = simplex.solve_standard_form(A, [4.0, 6.0], [-3.0, -2.0, 0.0, 0.0], max_iter=1)
    assert res.status == simplex.ITERATION_LIMIT


def test_multipliers_certify_optimum():
    rng = np.random.default_rng(21)
    for _ in range(25):
        m, n = 4, 9
        A = rng.normal(size=(m, n))
        x_feas = rng.uniform(0.5, 1.5, size=n)
        b = A @ x_feas
        c = rng.normal(size=n) + 2.0
        res = simplex.solve_standard_form(A, b, c)
        if res.status != simplex.OPTIMAL:
            continue
        # Feasibility and complementary optimality conditions at the answer.
        assert np.all(res.x >= -1e-9)
        assert np.abs(A @ res.x - b).max() < 1e-8
        reduced = c - A.T @ res.multipliers
        assert reduced.min() > -1e-8
        assert abs(res.objective - res.multipliers @ b) < 1e-8


def test_redundant_row_keeps_pinned_artificial():
    # Second row is a copy of the first: the artificial on the dependent row
    # cannot be pivoted out, yet the solve must still succeed.
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    res = simplex.solve_standard_form(A, [1.0, 1.0], [1.0, 2.0])
    assert res.status == simplex.OPTIMAL
    assert abs(res.objective - 1.0) < 1e-12
    assert np.allclose(res.x, [1.0, 0.0])


def assert_same_bits(warm, cold):
    assert warm.status == cold.status
    assert warm.objective == cold.objective
    for name in ("x", "multipliers", "basis"):
        a, b = getattr(warm, name), getattr(cold, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


def random_lps(seed, count=60):
    """(A, b, c) triples: feasible with mixed-sign b, a dependent row,
    infeasible, and unbounded through a free zero column."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m, n = 4, 9
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0.5, 1.5, size=n)
        c = rng.normal(size=n) + 2.0
        kind = i % 4
        if kind == 1:
            A = np.vstack([A, A[0] + A[1]])
            b = np.append(b, b[0] + b[1])
        elif kind == 2:
            A = np.abs(A)
            b = -np.abs(b)
        elif kind == 3:
            A = np.hstack([A, np.zeros((m, 1))])
            c = np.append(c, -1.0)
        yield kind, A, b, c


def test_warm_start_reproduces_the_cold_solve_bit_for_bit():
    seen = {"flip": 0, "pinned": 0, simplex.INFEASIBLE: 0, simplex.UNBOUNDED: 0,
            simplex.OPTIMAL: 0, simplex.ITERATION_LIMIT: 0}
    for kind, A, b, c in random_lps(31):
        start = simplex.feasible_start(A, b)
        cold = simplex.solve_standard_form(A, b, c)
        warm = simplex.solve_standard_form(A, b, c, start=start)
        assert_same_bits(warm, cold)
        # The basis is kept in ascending column order.
        for res in (cold, warm):
            assert res.basis is None or (np.diff(res.basis) > 0).all()
        seen[cold.status] += 1
        seen["flip"] += bool(start.flip.any())
        if start.status == simplex.OPTIMAL:
            assert warm.iterations == cold.iterations - start.iterations
            seen["pinned"] += bool((start.basis >= A.shape[1]).any())
        else:
            assert warm.iterations == 0
        p = start.iterations
        for cap in (p - 1, p, p + 1):
            capped = simplex.solve_standard_form(A, b, c, max_iter=cap)
            assert_same_bits(simplex.solve_standard_form(A, b, c, max_iter=cap, start=start),
                             capped)
            seen[capped.status] += 1
    assert all(seen.values()), seen


def test_one_start_serves_many_objectives_and_stays_unchanged():
    rng = np.random.default_rng(32)
    A = rng.normal(size=(4, 9))
    b = A @ rng.uniform(0.5, 1.5, size=9)
    start = simplex.feasible_start(A, b)
    fields = ("flip", "A1", "b", "basis", "enterable")
    before = {name: getattr(start, name).copy() for name in fields}
    for _ in range(200):
        c = rng.normal(size=9) + 1.0
        assert_same_bits(simplex.solve_standard_form(A, b, c, start=start),
                         simplex.solve_standard_form(A, b, c))
    for name in fields:
        arr = getattr(start, name)
        assert arr.tobytes() == before[name].tobytes(), name
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_start_of_another_shape_is_refused():
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    start = simplex.feasible_start(A[:, :3], [4.0, 6.0])
    with pytest.raises(ValueError, match="does not fit"):
        simplex.solve_standard_form(A, [4.0, 6.0], [-3.0, -2.0, 0.0, 0.0], start=start)


def test_start_at_a_sub_lp_optimum_reaches_the_optimum():
    rng = np.random.default_rng(33)
    solved = 0
    for _ in range(50):
        m, n, k = 3, 12, 5
        A = rng.normal(size=(m, n))
        # b is in the cone of the first k columns, so the sub-LP is feasible.
        b = A[:, :k] @ rng.uniform(0.5, 1.5, size=k)
        c = rng.normal(size=n) + 1.5
        sub = simplex.solve_standard_form(A[:, :k], b, c[:k])
        cold = simplex.solve_standard_form(A, b, c)
        if sub.status != simplex.OPTIMAL or cold.status != simplex.OPTIMAL:
            continue
        solved += 1
        # Artificial column k + i of the sub-LP is column n + i of the whole.
        basis = np.where(sub.basis < k, sub.basis, sub.basis - k + n)
        start = simplex.start_at(A, b, basis)
        assert start.iterations == 0 and not start.basis.flags.writeable
        warm = simplex.solve_standard_form(A, b, c, start=start)
        assert warm.status == simplex.OPTIMAL
        assert (np.diff(warm.basis) > 0).all()
        assert abs(warm.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective))
    assert solved >= 25
