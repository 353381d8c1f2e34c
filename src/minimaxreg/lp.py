"""Minimax fitting as a linear program, with a dual optimality certificate.

The fitting problem  min_tau max_j |y_j - x_j.tau|  is the LP

    min Delta   s.t.   x_j.tau + Delta >= y_j,   -x_j.tau + Delta >= -y_j,

with tau free. Because every constraint row carries Delta with coefficient
one and the rows come in +/- pairs, Delta >= max_j |r_j| >= 0 is implied, so
the explicit lower bound on Delta is redundant and the LP dual lives on

    D* = { u >= 0 :  sum_r u_r a_r = 0,  sum_r u_r = 1 },

maximizing  sum_r u_r h_r  over the constraint rows (a_r, h_r). The solver
works on that dual in standard form: it has only q+1 rows, the optimal
basic solution IS the dual certificate, and the final-basis multipliers
hand back (tau, Delta).

For replicated designs the per-level maximum absolute deviation is attained
at the level maximum or minimum, so the 2N constraints collapse to 2k rows
built from per-level extremes of y; the dual variables of that reduced
system are exactly the per-level multipliers (u_1..u_k, u'_1..u'_k).

``minimax_fit_lp`` is the one way in: ``_solve_group`` solves the group
rows of a replicated dataset and ``_solve_observations`` the observation
rows of a plain one. ``dual_certificate`` checks a solution against the
rows ``_minimax_rows`` lays out, reduced when the dataset is replicated;
it builds only the rows with a nonzero dual, at most q+1 of them.

The dual's constraints [G'; 1'] u = e_{q+1} involve only the regressors;
y enters through the objective alone. For the group rows G = [V; -V] the
simplex's phase 1 is therefore cached per level matrix, and every fit on
those levels runs only phase 2 from the cached start, which yields the
bits of a cold solve.

Each pivot still prices every column, two per observation, so observation
rows are fitted on a working set, the exchange method of discrete Chebyshev
fitting (Stiefel, 1959): an optimal dual vertex puts mass on q+1 extreme
observations only, so the simplex solves a subset of the rows, one
``X @ tau`` pass prices every observation, and the rows whose |r_j| exceeds
Delta, which are exactly the columns the full simplex would still price in,
join the set until none is left. Each subset's answer is read at its
optimal basis taken in column order, so it depends on that basis alone: a
nondegenerate optimum gives the full cold solve's bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import simplex
from .errors import (
    DimensionMismatchError,
    DualityGapError,
    SolverStatusError,
)
from .model import Dataset, FitResult, ReplicatedDesign

# Basic multipliers at or below this level flag a degenerate optimal basis.
NONUNIQUE_TOL = 1e-9

# Duality gap allowed by the certificate, relative to max(1, the largest |h_r|).
DUALITY_GAP_TOL = 1e-8

# Rows of a plain design the working set starts from; a design of at most
# this many rows is solved whole.
START_ROWS = 1000

# Pivots a working-set round may take per row of the dual, phase 1 included.
# Rounds on random, tied, replicated and rank-deficient designs took at most
# 5 per row; past the cap the simplex is taken to cycle on rounding.
SUBSET_PIVOTS = 50


@dataclass(frozen=True)
class LpSolution:
    """An optimal LP solution: optimal value, primal point and duals.

    ``primal`` is (tau_1..tau_q, Delta). ``dual`` holds one multiplier per
    constraint row of the solved system; ``scheme`` records what those rows
    are: ("observation", N) for the 2N-row form of a plain design (uppers
    first, then lowers) or ("group", k) for the 2k-row form of a replicated
    one (Z rows, then W rows).
    """

    value: float
    primal: np.ndarray
    dual: np.ndarray
    scheme: tuple
    degenerate_basis: bool

    @property
    def theta(self) -> np.ndarray:
        return self.primal[:-1]

    @property
    def delta(self) -> float:
        return float(self.primal[-1])


@dataclass(frozen=True)
class DualCertificate:
    """A dual feasible point and its objective, checked against the primal.

    ``u`` carries the multipliers of the upper (max-side) constraints and
    ``u_prime`` those of the lower (min-side) ones, per level for replicated
    designs and per observation otherwise.
    """

    u: np.ndarray
    u_prime: np.ndarray
    value: float
    gap: float
    zero_sum_residual: np.ndarray
    normalization_residual: float
    min_multiplier: float
    scheme: tuple

    def max_infeasibility(self) -> float:
        return max(
            float(np.abs(self.zero_sum_residual).max()),
            abs(self.normalization_residual),
            max(0.0, -self.min_multiplier),
        )


def _dual_system(G: np.ndarray) -> tuple:
    """(A, b) of the dual  A u = b, u >= 0:  G'u = 0 and sum(u) = 1."""
    n_rows, q = G.shape
    # Filled in place: A is C-ordered, so the simplex need not copy it.
    A = np.empty((q + 1, n_rows))
    A[:q] = G.T
    A[q] = 1.0
    b = np.zeros(q + 1)
    b[q] = 1.0
    return A, b


@functools.lru_cache(maxsize=8)
def _group_dual_system(v_bytes: bytes, shape: tuple) -> tuple:
    """The dual system of the group rows G = [V; -V] and its phase-1 start,
    keyed by the level matrix V.

    Both depend on the levels alone, so every replication of a design shares
    them; the start's arrays are read-only.
    """
    V = np.frombuffer(v_bytes).reshape(shape)
    A, b = _dual_system(np.vstack([V, -V]))
    A.flags.writeable = b.flags.writeable = False
    return A, b, simplex.feasible_start(A, b)


def _optimum(A, b, c, start=None, max_iter=None) -> simplex.StandardFormSolution:
    """Optimal simplex solution of the dual, or SolverStatusError.

    The minimax LP always has an optimum, so a non-optimal status or a
    singular basis comes from rounding on badly scaled data, or from a
    ``max_iter`` below the simplex's default.
    """
    try:
        res = simplex.solve_standard_form(A, b, c, start=start, max_iter=max_iter)
    except np.linalg.LinAlgError as exc:
        raise SolverStatusError(f"LP basis is singular: {exc}", "singular_basis") from exc
    if res.status != simplex.OPTIMAL:
        # An unbounded dual means an infeasible minimax LP, so report both
        # as the LP's infeasibility.
        status = res.status if res.status == simplex.ITERATION_LIMIT else simplex.INFEASIBLE
        raise SolverStatusError(f"LP terminated with status {status}", status)
    return res


def _degenerate(basic_values: np.ndarray) -> bool:
    """A basic multiplier at level ~0 (a pinned artificial on a dependent row
    counts as 0) signals alternative optimal bases, hence a possibly
    non-unique fitted theta."""
    return bool(np.any(basic_values <= NONUNIQUE_TOL))


def _solve_group(V: np.ndarray, z: np.ndarray, w: np.ndarray) -> LpSolution:
    """Solve the group rows G = [V; -V], h = [z; -w] from the levels' cached start."""
    A_dual, b_dual, start = _group_dual_system(V.tobytes(), V.shape)
    h = np.concatenate([z, -w])
    res = _optimum(A_dual, b_dual, -h, start)
    u = res.x
    return LpSolution(
        value=float(h @ u),
        # 0.0 - y, not -y: a multiplier of exactly 0 is a coefficient of +0.0.
        primal=0.0 - res.multipliers,
        dual=u,
        scheme=("group", V.shape[0]),
        # Artificial columns, past u's end, sit at level 0.
        degenerate_basis=_degenerate(np.concatenate([u, np.zeros(b_dual.shape[0])])[res.basis]),
    )


def _sorted_basis_point(A: np.ndarray, b: np.ndarray, h: np.ndarray, basis: np.ndarray):
    """Basic columns in index order, their u_B and h_B, and the multipliers.

    Reads the optimal basis of  A u = b  (artificial column n + i is the
    unit column e_i) with its columns sorted, so the answer depends on the
    basis alone, not on the order pivots left it in.
    """
    m, n = A.shape
    cols = np.sort(basis)
    real = cols < n
    B = np.zeros((m, m))
    B[:, real] = A[:, cols[real]]
    B[cols[~real] - n, np.flatnonzero(~real)] = 1.0
    h_B = np.zeros(m)
    h_B[real] = h[cols[real]]
    try:
        u_B = np.linalg.solve(B, b)
        # The phase-2 costs -h_B; 0.0 - keeps an artificial's cost at +0.0.
        y = np.linalg.solve(B.T, 0.0 - h_B)
    except np.linalg.LinAlgError as exc:
        raise SolverStatusError(f"LP basis is singular: {exc}", "singular_basis") from exc
    return cols, u_B, h_B, y


def _solve_working_set(X, y, rows, start_basis, max_iter):
    """Solve the rows ``rows`` of a plain design, all of them if None.

    Columns are numbered as in the dual of all 2N rows: j and N + j are
    row j's upper and lower sides, 2N + i is artificial i. ``start_basis``
    is a feasible basis among the set's columns, or None for a cold solve.
    Returns the optimal basis, the same basis sorted with its u_B and h_B,
    and the primal point (tau, Delta). Raises SolverStatusError when the
    solve fails.
    """
    n_obs, q = X.shape
    if rows is None:
        X_set, y_set = X, y
    else:
        X_set, y_set = X[rows], y[rows]
        # Sorted, so a sorted basis of the set is sorted in these numbers too.
        columns = np.concatenate([rows, n_obs + rows, 2 * n_obs + np.arange(q + 1)])
    G = np.vstack([X_set, -X_set])
    h = np.concatenate([y_set, -y_set])
    A_dual, b_dual = _dual_system(G)
    start = None
    if start_basis is not None:
        start = simplex.start_at(A_dual, b_dual, np.searchsorted(columns, start_basis))
    res = _optimum(A_dual, b_dual, -h, start, max_iter)
    cols, u_B, h_B, multipliers = _sorted_basis_point(A_dual, b_dual, h, res.basis)
    # 0.0 - y, not -y: a multiplier of exactly 0 is a coefficient of +0.0.
    primal = 0.0 - multipliers
    if rows is None:
        return res.basis, cols, u_B, h_B, primal
    return columns[res.basis], columns[cols], u_B, h_B, primal


def _non_finite(what):
    return SolverStatusError(f"LP point has a non-finite {what}", "non_finite")


def _solve_observations(X: np.ndarray, y: np.ndarray) -> LpSolution:
    """Solve the 2N observation rows of a plain design on a working set.

    Starts from every ceil(N / START_ROWS)-th row. After each solve one
    residual pass finds the rows outside the set with |r_j| > Delta + tol
    (reduced cost Delta - |r_j| < -tol), or a non-finite r_j, and the most
    violated of them join: at least 2(q+1), doubling every round, so even a
    start that misses every active row ends within O(log N) rounds. Phase 2
    of each round starts at the last round's optimal basis, which stays
    feasible as columns join. A subset's solve may take SUBSET_PIVOTS
    pivots per dual row. If it fails, say by cycling on rounding, or leaves
    a solved row's residual non-finite, the cold solve of every row takes
    over under the simplex's own cap; that solve is also the whole fit of a
    design of at most START_ROWS rows and of a set grown to every row. The
    dual is returned on all 2N rows, zero outside the set.
    """
    n_obs, q = X.shape
    rows = np.arange(0, n_obs, -(-n_obs // START_ROWS))
    grow = 2 * (q + 1)
    basis = None
    while rows.size < n_obs:
        try:
            basis, cols, u_B, h_B, primal = _solve_working_set(
                X, y, rows, basis, SUBSET_PIVOTS * (q + 1))
            # Overflow is checked for below, not warned about.
            with np.errstate(over="ignore", invalid="ignore"):
                r = X @ primal[:-1]
                r -= y
                np.abs(r, out=r)
            if not (np.isfinite(r[rows]).all() and np.isfinite(primal[-1])):
                raise _non_finite("residual on a solved row")
        except SolverStatusError:
            rows = np.arange(n_obs)
            break
        # Row j's reduced cost is Delta - |r_j|: the simplex's own test.
        violated = ~(r <= primal[-1] + simplex.TOL)
        violated[rows] = False
        if not violated.any():
            break
        candidates = np.flatnonzero(violated)
        if candidates.size > grow:
            worst = r[candidates]
            worst[np.isnan(worst)] = np.inf
            candidates = candidates[np.argpartition(-worst, grow - 1)[:grow]]
        rows = np.sort(np.concatenate([rows, candidates]))
        grow *= 2
    if rows.size == n_obs:
        # Every row at once: a design of at most START_ROWS rows, a set grown
        # to all of them, or the last resort after a subset's solve failed.
        basis, cols, u_B, h_B, primal = _solve_working_set(X, y, None, None, None)
        if not np.isfinite(primal).all():
            raise _non_finite("coefficient or Delta")

    real = cols < 2 * n_obs
    dual = np.zeros(2 * n_obs)
    dual[cols[real]] = u_B[real]
    return LpSolution(
        value=float(h_B @ u_B),
        primal=primal,
        dual=dual,
        scheme=("observation", n_obs),
        degenerate_basis=_degenerate(np.where(real, u_B, 0.0)),
    )


def _level_max_min(dataset: Dataset) -> tuple:
    """Per-level max z and min w of y on a replicated dataset."""
    y = dataset.y.reshape(dataset.design.n_levels, dataset.design.reps)
    return y.max(axis=1), y.min(axis=1)


def _scheme(design) -> tuple:
    if isinstance(design, ReplicatedDesign):
        return ("group", design.n_levels)
    return ("observation", design.n_obs)


def _minimax_rows(dataset: Dataset, rows: np.ndarray):
    """Constraint rows (G, h) number ``rows`` of the dataset, reduced if replicated.

    Row r below half, the N observations or the k levels, is the upper side
    of r: G_r = x_r and h_r = y_r (the level max z_r); row half + r is its
    lower side, -x_r and -y_r (-w_r). Also returns the scheme.
    """
    design = dataset.design
    if isinstance(design, ReplicatedDesign):
        M, (upper, lower) = design.levels, _level_max_min(dataset)
    else:
        M, upper, lower = design.matrix(), dataset.y, dataset.y
    lower_side = rows >= M.shape[0]
    index = rows - M.shape[0] * lower_side
    G = M[index]
    G[lower_side] *= -1.0
    return G, np.where(lower_side, -lower[index], upper[index]), _scheme(design)


def minimax_fit_lp(dataset: Dataset) -> FitResult:
    """Fit by the LP route and package diagnostics.

    Raises SolverStatusError when the solve does not reach optimality; the
    Monte Carlo engine treats that as a recorded per-replication failure.
    """
    if isinstance(dataset.design, ReplicatedDesign):
        sol = _solve_group(dataset.design.levels, *_level_max_min(dataset))
    else:
        sol = _solve_observations(dataset.design.matrix(), dataset.y)
    return FitResult(
        theta_hat=sol.theta,
        delta_hat=float(sol.value),
        method="lp_primal",
        diagnostics={
            "duality_gap": abs(float(sol.delta) - float(sol.value)),
            "nonunique_suspected": sol.degenerate_basis,
        },
        lp_solution=sol,
    )


def dual_certificate(dataset: Dataset, solution: LpSolution) -> DualCertificate:
    """Validate the dual point of a solved minimax LP against the dataset.

    Rebuilds the dataset's constraint rows that carry a nonzero dual, checks
    feasibility in the dual domain (zero-sum rows, normalization,
    nonnegativity) and that the dual objective matches the primal optimum;
    a gap beyond the tolerance, scaled by max(1, the largest |h_r|), raises
    DualityGapError since it signals a solver bug rather than a property of
    the data. A solution of another scheme or row count raises
    DimensionMismatchError.
    """
    scheme = _scheme(dataset.design)
    dual = solution.dual
    if solution.scheme != scheme or dual.shape != (2 * scheme[1],):
        raise DimensionMismatchError(
            f"solution of scheme {solution.scheme} with {dual.shape[0]} duals does not "
            f"match the dataset's scheme {scheme}"
        )
    # Only the rows of nonzero duals enter G'u and h.u: at most q+1 of them
    # at a simplex vertex, against 2N observation rows.
    support = np.flatnonzero(dual)
    G, h, _ = _minimax_rows(dataset, support)
    value = float(h @ dual[support])
    # Compare the recomputed dual objective against the primal-side optimum
    # (Delta read off the final-basis multipliers).
    gap = abs(value - solution.delta)
    # max |y| is the largest |h_r|: a level's |y| peaks at its max or min.
    tol = DUALITY_GAP_TOL * max(1.0, float(np.abs(dataset.y).max()))
    if gap > tol:
        raise DualityGapError(f"duality gap {gap:.3e} exceeds tolerance {tol:.1e}", gap)
    half = scheme[1]
    return DualCertificate(
        u=dual[:half],
        u_prime=dual[half:],
        value=value,
        gap=gap,
        zero_sum_residual=G.T @ dual[support],
        normalization_residual=float(dual.sum() - 1.0),
        min_multiplier=float(dual.min()),
        scheme=scheme,
    )
