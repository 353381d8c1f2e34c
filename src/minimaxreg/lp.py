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
``dual_certificate`` checks a solution on the same rows.

Each pivot prices every column, two per row, so many rows are fitted on a
working set, the exchange method of discrete Chebyshev fitting (Stiefel,
1959): an optimal dual vertex puts mass on q+1 extreme rows only, so the
simplex solves a subset of the rows, one ``M @ tau`` pass prices every row,
and the rows with max(upper_j - m_j.tau, m_j.tau - lower_j) > Delta, exactly
the columns the full simplex would still price in, join the set, at most
as many as it holds, until none is left. The dual always has the feasible
point u_j = u'_j = 1/2 on one row j, so every solve starts from a basis
written down from M (``_feasible_basis``) and the simplex needs no phase 1.
The dual's constraints involve M alone, so every cold start on at most
START_ROWS rows, a whole design's or a working set's first round, is
cached per M and shared by every fit on the same rows (every replication
of a Monte Carlo design, every y on one X). Every optimum is read once, at
the simplex's basis in column order, so it depends on that basis alone: a
nondegenerate optimum gives the bits of the solve of every row.
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

# Duality gap allowed by the certificate, relative to the largest |h_r|, max |y|.
DUALITY_GAP_TOL = 1e-8

# Rows solved whole, and the most the working set starts from; every cold
# start on at most this many rows is cached per row matrix.
START_ROWS = 1000

# Pivots a working-set round may take per row of the dual. The test suite's
# rounds, on random, tied, replicated and rank-deficient designs, took at
# most 3.6 per row (25 on 7 rows); past the cap the simplex is taken to cycle.
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


def _feasible_basis(M: np.ndarray) -> np.ndarray:
    """A feasible basis of the dual of the rows M, in its column numbers.

    u_j = u'_j = 1/2 on the first nonzero row j solves the dual: M'u = 0 and
    the u sum to 1. Columns j and n + j, with the artificials of every
    coordinate but the largest |m_jp|, make a nonsingular basis at that
    point, the artificials at level 0. An all-zero M takes column 0 and the
    q artificials instead.
    """
    n, q = M.shape
    nonzero = M.any(axis=1)
    if not nonzero.any():
        return np.concatenate([[0], 2 * n + np.arange(q)])
    j = int(np.argmax(nonzero))
    others = np.delete(np.arange(q), np.argmax(np.abs(M[j])))
    return np.concatenate([[j, n + j], 2 * n + others])


@functools.lru_cache(maxsize=8)
def _cached_dual_system(m_bytes: bytes, shape: tuple) -> tuple:
    """The dual system of the rows M and its start, keyed by M.

    Both depend on M alone, so every replication of a design shares them;
    the arrays are read-only.
    """
    M = np.frombuffer(m_bytes).reshape(shape)
    A, b = _dual_system(M)
    A.flags.writeable = b.flags.writeable = False
    return A, b, simplex.start_at(A, _feasible_basis(M))


def _solve(M, upper, lower, basis, max_iter):
    """Solve the two-sided rows (M, upper, lower).

    Columns j and n + j are row j's upper and lower sides, 2n + i is
    artificial i. ``basis`` is a feasible basis, or None to start from
    ``_feasible_basis``; a cold start on at most START_ROWS rows comes from
    the start cached per M. Returns the optimal basis (in column order), its
    real columns and their u_B, the primal point (tau, Delta) and the dual
    value h_B.u_B. Raises SolverStatusError: the minimax LP always has an
    optimum, so a non-optimal status, a singular basis or a non-finite point
    comes from rounding on badly scaled data, or from a ``max_iter`` below
    the simplex's default.
    """
    c = np.concatenate([-upper, lower])
    try:
        if basis is None and M.shape[0] <= START_ROWS:
            A, b, start = _cached_dual_system(M.tobytes(), M.shape)
        else:
            A, b = _dual_system(M)
            start = simplex.start_at(A, _feasible_basis(M) if basis is None else basis)
        res = simplex.solve_standard_form(A, b, c, start=start, max_iter=max_iter)
    except np.linalg.LinAlgError as exc:
        raise SolverStatusError(f"LP basis is singular: {exc}", "singular_basis") from exc
    if res.status != simplex.OPTIMAL:
        # An unbounded dual means an infeasible minimax LP, which only
        # rounding makes: report it as the LP's infeasibility.
        status = res.status if res.status == simplex.ITERATION_LIMIT else "infeasible"
        raise SolverStatusError(f"LP terminated with status {status}", status)
    # 0.0 - y, not -y: a multiplier of exactly 0 is a coefficient of +0.0.
    primal = 0.0 - res.multipliers
    # Per float: np.isfinite(primal).all() costs 2 of a fit's ~100 us.
    if not all(map(math.isfinite, primal.tolist())):
        raise SolverStatusError("LP point has a non-finite coefficient or Delta", "non_finite")
    real = res.basis[res.basis < A.shape[1]]
    u_B = res.x[real]
    return res.basis, real, u_B, primal, float(-c[real] @ u_B)


def _solve_rows(M, upper, lower, scheme) -> LpSolution:
    """Solve the two-sided rows of M, on a working set when they are many.

    Starts from every ceil(n / START_ROWS)-th row, at most START_ROWS of
    them, so the first round's start is cached per row matrix. After
    each solve one residual pass finds the rows outside the set with
    max(upper_j - m_j.tau, m_j.tau - lower_j) > Delta + tol (the smaller
    reduced cost of row j's two columns is below -tol, with tol the
    simplex's pricing tolerance at the scale of all the rows' costs), or a
    non-finite one, and they all join; when they outnumber the set's rows,
    as many of the most violated join as the set holds, so the set at most
    doubles and even a start that misses every active row ends within
    O(log n) rounds. Each round solves the set's rows in their own
    column numbering, ``columns`` mapping them to those of all n rows, and
    starts at the last round's optimal basis, which stays feasible as
    columns join. A subset's solve may take SUBSET_PIVOTS pivots per dual
    row; if it fails, say by cycling on rounding, the solve of every row
    takes over under the simplex's own cap. The solve of every row is also
    the whole fit of at most START_ROWS rows and of a set grown to every
    row. The dual is returned on all 2n sides, zero outside the basis.
    """
    n, q = M.shape
    rows = np.arange(0, n, -(-n // START_ROWS))
    basis = None
    if rows.size < n:
        # The simplex's pricing tolerance on every row's costs c: as lower
        # <= upper, max |c| is max(upper.max(), -lower.min()). Only the
        # working set reads it, and a two-level fit of about 75 us would pay 3.6 us.
        tol = simplex.pricing_tol(max(float(upper.max()), -float(lower.min())))
    while rows.size < n:
        # Increasing, so a sorted basis stays sorted mapped either way.
        columns = np.concatenate([rows, n + rows, 2 * n + np.arange(q + 1)])
        try:
            basis, real, u_B, primal, value = _solve(
                M[rows], upper[rows], lower[rows],
                None if basis is None else np.searchsorted(columns, basis),
                SUBSET_PIVOTS * (q + 1))
        except SolverStatusError:
            rows = np.arange(n)
            break
        basis, real = columns[basis], columns[real]
        # A residual that overflows fails the row test below, unwarned.
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
        # Row j's smaller reduced cost is Delta - r_j: the simplex's own test.
        violated = ~(r <= primal[-1] + tol)
        violated[rows] = False
        candidates = np.flatnonzero(violated)
        if not candidates.size:
            break
        if candidates.size > rows.size:
            worst = r[candidates]
            worst[np.isnan(worst)] = np.inf
            candidates = candidates[np.argpartition(-worst, rows.size - 1)[:rows.size]]
        rows = np.sort(np.concatenate([rows, candidates]))
    if rows.size == n:
        basis, real, u_B, primal, value = _solve(M, upper, lower, None, None)
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

    Reads u = dual[:n] and u' = dual[n:] on the upper and lower sides of the
    two-sided rows (M, upper, lower) the solver fit: the dual value is
    upper.u - lower.u' and the zero-sum residual M'u - M'u'. A gap to the
    primal Delta beyond DUALITY_GAP_TOL times max |y| raises DualityGapError,
    a solver bug rather than a property of the data; a solution of another
    scheme or row count raises DimensionMismatchError.
    """
    M, upper, lower, scheme = _two_sided(dataset)
    dual = solution.dual
    n = scheme[1]
    if solution.scheme != scheme or dual.shape != (2 * n,):
        raise DimensionMismatchError(
            f"solution of scheme {solution.scheme} with {dual.shape[0]} duals does not "
            f"match the dataset's scheme {scheme}"
        )
    u, u_prime = dual[:n], dual[n:]
    # Only the rows of nonzero duals enter the sums: at most q+1 of them at
    # a simplex vertex, against 2N observation rows.
    up, lo = np.flatnonzero(u), np.flatnonzero(u_prime)
    value = float(upper[up] @ u[up] - lower[lo] @ u_prime[lo])
    gap = abs(value - solution.delta)
    # max |y| is the largest |h_r|: a level's |y| peaks at its max or min.
    tol = DUALITY_GAP_TOL * float(np.abs(dataset.y).max())
    if gap > tol:
        raise DualityGapError(f"duality gap {gap:.3e} exceeds tolerance {tol:.1e}", gap)
    return DualCertificate(
        u=u,
        u_prime=u_prime,
        value=value,
        gap=gap,
        zero_sum_residual=M[up].T @ u[up] - M[lo].T @ u_prime[lo],
        normalization_residual=float(dual.sum() - 1.0),
        min_multiplier=float(dual.min()),
    )
