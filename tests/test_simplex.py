"""Standard-form simplex engine from a feasible basis: termination, statuses,
degeneracy."""

import numpy as np
import pytest

import minimaxreg as mr
from minimaxreg import simplex


def test_basic_optimum():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x = 4, y = 0
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    res = simplex.solve_standard_form(A, [4.0, 6.0], [-3.0, -2.0, 0.0, 0.0],
                                      start=simplex.start_at(A, [2, 3]))
    assert res.status == simplex.OPTIMAL
    assert abs(res.objective - (-12.0)) < 1e-12
    assert np.allclose(res.x, [4.0, 0.0, 0.0, 2.0])


def test_unbounded():
    # The artificial start at level 0 gives way to column 0, then column 1
    # prices in with no row to stop it.
    A = np.array([[1.0, -1.0]])
    res = simplex.solve_standard_form(A, [0.0], [-1.0, 0.0], start=simplex.start_at(A, [2]))
    assert res.status == simplex.UNBOUNDED


# Beale's classic example, which cycles under pure Dantzig pricing with the
# lowest-index leaving rule; its optimum is -0.05. Columns 4, 5 and 6 are
# its slacks, a feasible basis at x = (0, 0, 0, 0, 0, 0, 1).
BEALE_A = np.array([
    [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
    [0.50, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
])
BEALE_B = [0.0, 0.0, 1.0]
BEALE_C = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
BEALE_START = simplex.start_at(BEALE_A, [4, 5, 6])


def test_beale_cycling_instance_terminates():
    res = simplex.solve_standard_form(BEALE_A, BEALE_B, BEALE_C, start=BEALE_START)
    assert res.status == simplex.OPTIMAL
    assert abs(res.objective - (-0.05)) < 1e-12
    assert res.iterations == 2


def test_beale_terminates_under_blands_rule(monkeypatch):
    # With a stall limit of 1, every degenerate pivot switches to Bland's
    # rule; from the slack basis its path is as short as Dantzig's.
    monkeypatch.setattr(simplex, "STALL_LIMIT", 1)
    res = simplex.solve_standard_form(BEALE_A, BEALE_B, BEALE_C, start=BEALE_START)
    assert res.status == simplex.OPTIMAL
    assert abs(res.objective - (-0.05)) < 1e-12
    assert res.iterations == 2


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
    # Beale's instance needs 2 pivots from its slack basis; each basis is
    # priced before the cap is tested, so a cap of 2 reaches the optimum.
    for cap, status in ((0, simplex.ITERATION_LIMIT), (1, simplex.ITERATION_LIMIT),
                        (2, simplex.OPTIMAL), (3, simplex.OPTIMAL)):
        res = simplex.solve_standard_form(BEALE_A, BEALE_B, BEALE_C, start=BEALE_START,
                                          max_iter=cap)
        assert res.status == status
        assert res.iterations == min(cap, 2)


def random_lp(rng, m=4, n=9):
    """(A, b, c) with b in the cone of A's first m columns, so that those
    columns are a feasible basis."""
    A = rng.normal(size=(m, n))
    return A, A[:, :m] @ rng.uniform(0.5, 1.5, size=m), rng.normal(size=n) + 2.0


def test_multipliers_certify_optimum():
    rng = np.random.default_rng(21)
    solved = 0
    for _ in range(25):
        A, b, c = random_lp(rng)
        res = simplex.solve_standard_form(A, b, c, start=simplex.start_at(A, np.arange(4)))
        if res.status != simplex.OPTIMAL:
            continue
        solved += 1
        # The basis is kept in ascending column order.
        assert (np.diff(res.basis) > 0).all()
        # Feasibility and complementary optimality conditions at the answer.
        assert np.all(res.x >= -1e-9)
        assert np.abs(A @ res.x - b).max() < 1e-8
        reduced = c - A.T @ res.multipliers
        assert reduced.min() > -1e-8
        assert abs(res.objective - res.multipliers @ b) < 1e-8
    assert solved >= 15


def test_redundant_row_keeps_pinned_artificial():
    # Second row is a copy of the first: the artificial on the dependent row
    # cannot be pivoted out, yet the solve must still succeed.
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    start = simplex.start_at(A, [0, 3])
    assert start.basis.tolist() == [0, 3]
    res = simplex.solve_standard_form(A, [1.0, 1.0], [1.0, 2.0], start=start)
    assert res.status == simplex.OPTIMAL
    assert abs(res.objective - 1.0) < 1e-12
    assert np.allclose(res.x, [1.0, 0.0])
    assert res.basis.tolist() == [0, 3]


def test_start_at_pivots_each_artificial_out_for_its_largest_entry():
    # Row 0's artificial reaches columns 1 and 2 and takes column 2, the
    # larger entry; row 1's then reaches columns 0 and 1 equally, and takes
    # column 0, the first.
    A = np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 0.0]])
    start = simplex.start_at(A, [3, 4])
    assert start.basis.tolist() == [2, 0]


def test_start_at_reaches_a_column_of_small_scale():
    # Row 1 is 1e-12 times data of its own: its artificial is pivoted out.
    # Row 2 is 0.1 times row 0, dependent up to rounding: its stays pinned.
    A = np.array([[1.0, 1.0, 1.0], [3e-12, 1e-12, 2e-12], [0.1, 0.1, 0.1]])
    start = simplex.start_at(A, [0, 4, 5])
    assert start.basis.tolist() == [0, 1, 5]


def drive_out_reference(A, basis):
    """start_at's basis, with each artificial's column found by a Python loop."""
    m, n = A.shape
    A1 = np.hstack([A, np.eye(m)])
    basis = np.array(basis)
    for row in range(m):
        if basis[row] < n:
            continue
        row_of_inv = np.linalg.solve(A1[:, basis].T, np.eye(m)[row])
        coeff = row_of_inv @ A
        outside = [j for j in range(n) if j not in basis]
        if not outside:
            continue
        enter = max(outside, key=lambda j: abs(coeff[j]))
        if abs(coeff[enter]) > 1e-9 * (np.abs(row_of_inv) @ np.abs(A).max(axis=1)):
            basis[row] = enter
    return basis


def test_start_at_matches_the_loop_reference():
    # Small integer matrices: zero, repeated and dependent rows and columns.
    rng = np.random.default_rng(34)
    compared = 0
    for _ in range(200):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 12))
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        basis = n + np.arange(m)
        real = rng.permutation(n)[: int(rng.integers(0, min(m, n) + 1))]
        basis[rng.permutation(m)[: real.size]] = real
        if np.linalg.matrix_rank(np.hstack([A, np.eye(m)])[:, basis]) < m:
            continue
        compared += 1
        assert simplex.start_at(A, basis).basis.tolist() == drive_out_reference(A, basis).tolist()
    assert compared >= 100


def assert_same_bits(one, other):
    assert one.status == other.status
    assert one.objective == other.objective
    assert one.iterations == other.iterations
    for name in ("x", "multipliers", "basis"):
        a, b = getattr(one, name), getattr(other, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


def test_one_start_serves_many_objectives_and_stays_unchanged():
    rng = np.random.default_rng(32)
    A, b, _ = random_lp(rng)
    start = simplex.start_at(A, np.arange(4))
    fields = ("A1", "basis")
    before = {name: getattr(start, name).copy() for name in fields}
    for _ in range(200):
        c = rng.normal(size=9) + 1.0
        assert_same_bits(simplex.solve_standard_form(A, b, c, start=start),
                         simplex.solve_standard_form(A, b, c,
                                                     start=simplex.start_at(A, np.arange(4))))
    for name in fields:
        arr = getattr(start, name)
        assert arr.tobytes() == before[name].tobytes(), name
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_start_of_another_shape_is_refused():
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    start = simplex.start_at(A[:, :3], [2, 4])
    with pytest.raises(ValueError, match="does not fit"):
        simplex.solve_standard_form(A, [4.0, 6.0], [-3.0, -2.0, 0.0, 0.0], start=start)


def test_start_at_a_sub_lp_optimum_reaches_the_optimum():
    rng = np.random.default_rng(33)
    solved = 0
    for _ in range(50):
        m, n, k = 3, 12, 5
        A, b, c = random_lp(rng, m, n)
        c -= 0.5
        sub = simplex.solve_standard_form(A[:, :k], b, c[:k],
                                          start=simplex.start_at(A[:, :k], np.arange(m)))
        whole = simplex.solve_standard_form(A, b, c, start=simplex.start_at(A, np.arange(m)))
        if sub.status != simplex.OPTIMAL or whole.status != simplex.OPTIMAL:
            continue
        solved += 1
        # Artificial column k + i of the sub-LP is column n + i of the whole.
        basis = np.where(sub.basis < k, sub.basis, sub.basis - k + n)
        start = simplex.start_at(A, basis)
        assert not start.basis.flags.writeable
        warm = simplex.solve_standard_form(A, b, c, start=start)
        assert warm.status == simplex.OPTIMAL
        assert (np.diff(warm.basis) > 0).all()
        assert abs(warm.objective - whole.objective) <= 1e-9 * (1.0 + abs(whole.objective))
    assert solved >= 25
