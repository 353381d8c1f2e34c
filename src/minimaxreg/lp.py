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

Both designs give the same LP on two-sided rows (M, upper, lower): row j of
M bounds m_j.tau from above by upper_j - Delta and from below by
lower_j + Delta. A plain design is (X, y, y). In a replicated design a
level's largest deviation sits at its max or min, so its 2N rows collapse
to (V, z, w) on the k levels, and the duals of those rows are the
per-level multipliers (u_1..u_k, u'_1..u'_k). ``_two_sided`` lays the rows
out, ``_solve_rows`` solves them, ``minimax_fit_lp`` is the one way in and
``dual_certificate`` checks a solution on the rows of its nonzero duals.

Each pivot prices every column, two per row, so many rows are fitted on a
working set, the exchange method of discrete Chebyshev fitting (Stiefel,
1959): an optimal dual vertex puts mass on q+1 extreme rows only, so the
simplex solves a subset of the rows, one ``M @ tau`` pass prices every row,
and the rows with max(upper_j - m_j.tau, m_j.tau - lower_j) > Delta, exactly
the columns the full simplex would still price in, join the set until none
is left. The dual's constraints involve M alone, so a design of at most
START_ROWS rows is solved whole from a phase-1 start cached per M, which
every fit on the same rows (every replication of a Monte Carlo design)
shares; it gives the bits of a cold solve. Every optimum is read once, at
the simplex's basis in column order, so it depends on that basis alone: a
nondegenerate optimum gives the full cold solve's bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import simplex
from .errors import (
    DimensionMismatchError,
    DualityGapError,
    SolverStatusError,
)
from .model import Dataset, FitResult, ReplicatedDesign, group_extremes_replicated

# Basic multipliers at or below this level flag a degenerate optimal basis.
NONUNIQUE_TOL = 1e-9

# Duality gap allowed by the certificate, relative to max(1, the largest |h_r|).
DUALITY_GAP_TOL = 1e-8

# Two-sided rows the working set starts from; at most this many rows are
# solved whole, from a phase-1 start cached per row matrix.
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


def _dual_system(M: np.ndarray) -> tuple:
    """(A, b) of the dual  A u = b, u >= 0  on the two-sided rows of M:
    [M', -M'; 1'] u = e_{q+1}, column j the upper and n + j the lower side
    of row j."""
    n_rows, q = M.shape
    # Filled in place: A is C-ordered, so the simplex need not copy it.
    A = np.empty((q + 1, 2 * n_rows))
    A[:q, :n_rows] = M.T
    np.negative(M.T, out=A[:q, n_rows:])
    A[q] = 1.0
    b = np.zeros(q + 1)
    b[q] = 1.0
    return A, b


@functools.lru_cache(maxsize=8)
def _cached_dual_system(m_bytes: bytes, shape: tuple) -> tuple:
    """The dual system of the rows M and its phase-1 start, keyed by M.

    Both depend on M alone, so every replication of a design shares them;
    the start's arrays are read-only.
    """
    A, b = _dual_system(np.frombuffer(m_bytes).reshape(shape))
    A.flags.writeable = b.flags.writeable = False
    return A, b, simplex.feasible_start(A, b)


def _solve(M, upper, lower, rows, start_basis, max_iter):
    """Solve the two-sided rows ``rows`` of M, all of them if None.

    Columns are numbered as in the dual of all n rows: j and n + j are row
    j's upper and lower sides, 2n + i is artificial i. ``start_basis`` is a
    feasible basis among the set's columns, or None for a cold solve; the
    whole of at most START_ROWS rows starts from the cached phase 1.
    Returns the optimal basis (in column order), its real columns and their
    u_B, the primal point (tau, Delta) and the dual value h_B.u_B. Raises
    SolverStatusError: the minimax LP always has an optimum, so a
    non-optimal status or a singular basis comes from rounding on badly
    scaled data, or from a ``max_iter`` below the simplex's default.
    """
    n, q = M.shape
    if rows is not None:
        M, upper, lower = M[rows], upper[rows], lower[rows]
        # Sorted, so a sorted basis of the set is sorted in these numbers too.
        columns = np.concatenate([rows, n + rows, 2 * n + np.arange(q + 1)])
    c = np.concatenate([-upper, lower])
    try:
        if rows is None and n <= START_ROWS:
            A, b, start = _cached_dual_system(M.tobytes(), M.shape)
        else:
            A, b = _dual_system(M)
            start = None
            if start_basis is not None:
                start = simplex.start_at(A, b, np.searchsorted(columns, start_basis))
        res = simplex.solve_standard_form(A, b, c, start=start, max_iter=max_iter)
    except np.linalg.LinAlgError as exc:
        raise SolverStatusError(f"LP basis is singular: {exc}", "singular_basis") from exc
    if res.status != simplex.OPTIMAL:
        # An unbounded dual means an infeasible minimax LP, so report both
        # as the LP's infeasibility.
        status = res.status if res.status == simplex.ITERATION_LIMIT else simplex.INFEASIBLE
        raise SolverStatusError(f"LP terminated with status {status}", status)
    real = res.basis[res.basis < A.shape[1]]
    u_B = res.x[real]
    # 0.0 - y, not -y: a multiplier of exactly 0 is a coefficient of +0.0.
    primal = 0.0 - res.multipliers
    value = float(-c[real] @ u_B)
    if rows is None:
        return res.basis, real, u_B, primal, value
    return columns[res.basis], columns[real], u_B, primal, value


def _non_finite(what):
    return SolverStatusError(f"LP point has a non-finite {what}", "non_finite")


def _solve_rows(M, upper, lower, scheme) -> LpSolution:
    """Solve the two-sided rows of M, on a working set when they are many.

    Starts from every ceil(n / START_ROWS)-th row. After each solve one
    residual pass finds the rows outside the set with
    max(upper_j - m_j.tau, m_j.tau - lower_j) > Delta + tol (the smaller
    reduced cost of row j's two columns is below -tol), or a non-finite
    one, and the most violated of them join: at least 2(q+1), doubling
    every round, so even a start that misses every active row ends within
    O(log n) rounds. Phase 2 of each round starts at the last round's
    optimal basis, which stays feasible as columns join. A subset's solve
    may take SUBSET_PIVOTS pivots per dual row. If it fails, say by cycling
    on rounding, or leaves a solved row's residual non-finite, the cold
    solve of every row takes over under the simplex's own cap; the solve of
    every row is also the whole fit of at most START_ROWS rows and of a set
    grown to every row. The dual is returned on all 2n sides, zero outside
    the basis.
    """
    n, q = M.shape
    rows = np.arange(0, n, -(-n // START_ROWS))
    grow = 2 * (q + 1)
    basis = None
    while rows.size < n:
        try:
            basis, real, u_B, primal, value = _solve(M, upper, lower, rows, basis,
                                                     SUBSET_PIVOTS * (q + 1))
            # Overflow is checked for below, not warned about.
            with np.errstate(over="ignore", invalid="ignore"):
                r = M @ primal[:-1]
                if upper is lower:
                    # |r - y| has the bits of the max of both sides and
                    # allocates no second array: 0.6 ms against 1.5 ms for
                    # 10^5 rows, q = 5 (one BLAS thread, shared 2-vCPU host).
                    r -= upper
                    np.abs(r, out=r)
                else:
                    above = upper - r
                    r -= lower
                    np.maximum(above, r, out=r)
            if not (np.isfinite(r[rows]).all() and np.isfinite(primal[-1])):
                raise _non_finite("residual on a solved row")
        except SolverStatusError:
            rows = np.arange(n)
            break
        # Row j's smaller reduced cost is Delta - r_j: the simplex's own test.
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
    if rows.size == n:
        basis, real, u_B, primal, value = _solve(M, upper, lower, None, None, None)
        # Per float: np.isfinite(primal).all() costs 2 of a fit's ~100 us.
        if not all(map(math.isfinite, primal.tolist())):
            raise _non_finite("coefficient or Delta")
    dual = np.zeros(2 * n)
    dual[real] = u_B
    return LpSolution(
        value=value,
        primal=primal,
        dual=dual,
        scheme=scheme,
        # A basic artificial, pinned on a dependent row, sits at level 0.
        degenerate_basis=real.size < basis.size or bool((u_B <= NONUNIQUE_TOL).any()),
    )


def _two_sided(dataset: Dataset) -> tuple:
    """(M, upper, lower, scheme): the two-sided rows of the dataset's LP.

    A replicated design gives its k levels with the level max z above and
    the level min w below, scheme ("group", k); a plain design gives its N
    rows with y on both sides, scheme ("observation", N).
    """
    design = dataset.design
    if isinstance(design, ReplicatedDesign):
        z, w = group_extremes_replicated(dataset.y, design.n_levels, design.reps)
        return design.levels, z, w, ("group", design.n_levels)
    return design.matrix(), dataset.y, dataset.y, ("observation", design.n_obs)


def _minimax_rows(M, upper, lower, rows: np.ndarray) -> tuple:
    """Constraint rows (G, h) number ``rows`` of the two-sided rows of M.

    Row r below n, the number of rows of M, is the upper side of r:
    G_r = m_r and h_r = upper_r; row n + r is its lower side, -m_r and
    -lower_r.
    """
    lower_side = rows >= M.shape[0]
    index = rows - M.shape[0] * lower_side
    G = M[index]
    G[lower_side] *= -1.0
    return G, np.where(lower_side, -lower[index], upper[index])


def minimax_fit_lp(dataset: Dataset) -> FitResult:
    """Fit by the LP route and package diagnostics.

    Raises SolverStatusError when the solve does not reach optimality; the
    Monte Carlo engine treats that as a recorded per-replication failure.
    """
    sol = _solve_rows(*_two_sided(dataset))
    return FitResult(
        theta_hat=sol.theta,
        delta_hat=sol.value,
        method="lp_primal",
        diagnostics={
            "duality_gap": abs(sol.delta - sol.value),
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
    M, upper, lower, scheme = _two_sided(dataset)
    dual = solution.dual
    if solution.scheme != scheme or dual.shape != (2 * scheme[1],):
        raise DimensionMismatchError(
            f"solution of scheme {solution.scheme} with {dual.shape[0]} duals does not "
            f"match the dataset's scheme {scheme}"
        )
    # Only the rows of nonzero duals enter G'u and h.u: at most q+1 of them
    # at a simplex vertex, against 2N observation rows.
    support = np.flatnonzero(dual)
    G, h = _minimax_rows(M, upper, lower, support)
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
