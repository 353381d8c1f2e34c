"""Dense two-phase primal simplex for standard-form linear programs.

Solves   min c.x   subject to   A x = b,  x >= 0.

Phase 1 depends on (A, b) alone: ``feasible_start`` runs it and pivots the
surviving artificials out, and its ``FeasibleStart`` can seed phase 2 for any
number of objectives c. ``solve_standard_form`` runs phase 2 from a given
start, or computes one first, so a warm solve is bit-identical to a cold one.
``start_at`` makes a start from a basis already known to be feasible.

Pricing is Dantzig (most negative reduced cost); after a stall of
consecutive degenerate pivots the solver switches to Bland's rule until a
nondegenerate pivot occurs, which guarantees termination on the highly
degenerate bases the minimax fitting problem produces. The basic solution
and the multipliers are derived from the final basis by direct solves,
so no pivoting drift survives into the reported answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

# Consecutive degenerate pivots tolerated before anti-cycling kicks in.
STALL_LIMIT = 50

# Default optimality and pivoting tolerance: a column prices in when its
# reduced cost is below -TOL.
TOL = 1e-9


@dataclass
class StandardFormSolution:
    """Terminal state of a standard-form solve.

    ``multipliers`` is the vector y solving B'y = c_B at the final basis; for
    an optimal basis these are the duals of the equality constraints.
    ``iterations`` counts the pivots this call made: phase 2 alone when it
    was given a start.
    """

    status: str
    x: Optional[np.ndarray]
    objective: Optional[float]
    basis: Optional[np.ndarray]
    multipliers: Optional[np.ndarray]
    iterations: int


@dataclass(frozen=True)
class FeasibleStart:
    """Phase 1 of a standard-form LP: everything phase 2 needs except c.

    ``A1`` is [A | I] and ``b`` the right-hand side, both after the rows in
    ``flip`` were negated to make b >= 0. ``basis`` is the feasible basis
    phase 2 starts from; ``enterable`` masks the artificial columns out of
    pricing. ``iterations`` is the phase-1 pivot count, 0 for a start made
    by ``start_at``. ``status`` is OPTIMAL when a feasible basis was found,
    and otherwise the status every solve from this start reports. The
    arrays are read-only, so one start can serve any number of solves.
    """

    flip: np.ndarray
    A1: np.ndarray
    b: np.ndarray
    basis: np.ndarray
    enterable: np.ndarray
    iterations: int
    status: str


def _pivot_loop(A, b, c, basis, enterable, tol, max_iter, iters):
    """Run simplex pivots until optimal/unbounded/limit. Mutates basis.

    Returns the status, the pivot count, and the basic solution and
    multipliers of the last basis priced (None when none was).
    """
    m = A.shape[0]
    stall = 0
    bland = False
    xb = y = None
    while True:
        if iters >= max_iter:
            return ITERATION_LIMIT, iters, xb, y
        B = A[:, basis]
        xb = np.linalg.solve(B, b)
        y = np.linalg.solve(B.T, c[basis])
        reduced = c - A.T @ y
        reduced[basis] = 0.0
        candidates = enterable & (reduced < -tol)
        if not candidates.any():
            return OPTIMAL, iters, xb, y
        if bland:
            enter = int(np.flatnonzero(candidates)[0])
        else:
            masked = np.where(candidates, reduced, np.inf)
            enter = int(np.argmin(masked))
        w = np.linalg.solve(B, A[:, enter])
        positive = w > tol
        if not positive.any():
            return UNBOUNDED, iters, xb, y
        ratios = np.full(m, np.inf)
        ratios[positive] = np.maximum(xb[positive], 0.0) / w[positive]
        t = ratios.min()
        ties = np.flatnonzero(ratios <= t + 1e-12 * (1.0 + abs(t)))
        if bland:
            leave_row = int(ties[np.argmin(basis[ties])])
        else:
            # Highest column index leaves first: artificial columns sit at the
            # end, so this drives them out of the basis on ties.
            leave_row = int(ties[np.argmax(basis[ties])])
        basis[leave_row] = enter
        iters += 1
        if t <= tol:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        else:
            stall = 0
            bland = False


def _default_max_iter(A) -> int:
    m, n = A.shape
    return 50 * (m + n)


def feasible_start(A, b, *, tol: float = TOL,
                   max_iter: int | None = None) -> FeasibleStart:
    """Phase 1 of  A x = b, x >= 0:  a feasible basis, or why there is none.

    ``tol`` and ``max_iter`` mean what they mean to ``solve_standard_form``;
    a start serves solves with the same ``tol`` and a ``max_iter`` no larger.
    """
    flip, A, A1, b = _phase_tableau(A, b)
    m, n = A.shape
    if max_iter is None:
        max_iter = _default_max_iter(A)

    # Artificial basis, minimize total infeasibility.
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = np.arange(n, n + m)
    status, iters, xb, _ = _pivot_loop(
        A1, b, c1, basis, np.ones(n + m, dtype=bool), tol, max_iter, 0
    )
    if status == OPTIMAL and float(c1[basis] @ xb) > tol * (1.0 + float(np.abs(b).sum())):
        status = INFEASIBLE
    if status == OPTIMAL:
        _drive_out_artificials(A, A1, basis)
    return _frozen_start(flip, A1, b, basis, iters, status)


def _drive_out_artificials(A, A1, basis) -> None:
    """Pivot basic artificials out where their row admits a real column.

    The artificials sit at level 0, so each pivot is degenerate and keeps the
    basis feasible. Rows that admit none are linearly dependent on the others
    and keep a pinned artificial, which no column can move in phase 2.
    Mutates basis.
    """
    m, n = A.shape
    for row in range(m):
        if basis[row] < n:
            continue
        ident = np.zeros(m)
        ident[row] = 1.0
        row_of_inv = np.linalg.solve(A1[:, basis].T, ident)
        coeffs = row_of_inv @ A
        usable = [j for j in np.flatnonzero(np.abs(coeffs) > 1e-7) if j not in basis]
        if usable:
            basis[row] = usable[0]


def start_at(A, b, basis) -> FeasibleStart:
    """A phase-2 start at ``basis``, a feasible basis of [A | I] known already.

    A feasible basis of an LP on some of A's columns stays feasible when the
    other columns join at zero, so the optimum of such a sub-LP, its columns
    renumbered into A, seeds phase 2 of the whole LP without phase 1. An
    artificial the sub-LP kept pinned on a row its columns left dependent
    is pivoted out first if a joining column makes the row independent:
    left in, it could grow in phase 2, whose ratio test never drives it out.
    """
    flip, A, A1, b = _phase_tableau(A, b)
    basis = np.array(basis, dtype=np.intp)
    _drive_out_artificials(A, A1, basis)
    return _frozen_start(flip, A1, b, basis, 0, OPTIMAL)


def _phase_tableau(A, b) -> tuple:
    """(flip, A, [A | I], b) with the rows in ``flip`` negated to make b >= 0.

    Multipliers of flipped rows change sign; the solve restores them.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1).copy()
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"inconsistent LP shapes: A {A.shape}, b {b.shape}")
    flip = b < 0
    if flip.any():
        A = A.copy()
        A[flip] *= -1.0
        b[flip] *= -1.0
    return flip, A, np.hstack([A, np.eye(A.shape[0])]), b


def _frozen_start(flip, A1, b, basis, iterations, status) -> FeasibleStart:
    m, width = A1.shape
    enterable = np.arange(width) < width - m
    for arr in (flip, A1, b, basis, enterable):
        arr.flags.writeable = False
    return FeasibleStart(flip, A1, b, basis, enterable, iterations, status)


def solve_standard_form(A, b, c, *, tol: float = TOL, max_iter: int | None = None,
                        start: FeasibleStart | None = None) -> StandardFormSolution:
    """Two-phase simplex on  min c.x  s.t.  A x = b, x >= 0.

    Given ``start``, from ``feasible_start(A, b)`` with the same ``tol`` and
    a ``max_iter`` no smaller, only phase 2 runs. Its pivots count on from
    ``start.iterations`` toward ``max_iter``, so the result is the cold
    solve's, bit for bit.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    m, n = A.shape
    if b.shape[0] != m or c.shape[0] != n:
        raise ValueError(f"inconsistent LP shapes: A {A.shape}, b {b.shape}, c {c.shape}")
    if max_iter is None:
        max_iter = _default_max_iter(A)
    made = 0
    if start is None:
        start = feasible_start(A, b, tol=tol, max_iter=max_iter)
        made = start.iterations
    elif start.A1.shape != (m, n + m):
        raise ValueError(f"start of shape {start.A1.shape} does not fit A {A.shape}")
    # A cold solve capped at or below the phase-1 pivot count stops in phase 1.
    status = ITERATION_LIMIT if start.iterations >= max_iter else start.status
    if status != OPTIMAL:
        return StandardFormSolution(status, None, None, None, None, made)

    # Phase 2: real objective; artificials frozen out of pricing.
    c2 = np.concatenate([c, np.zeros(m)])
    basis = start.basis.copy()
    status, iters, xb, y = _pivot_loop(
        start.A1, start.b, c2, basis, start.enterable, tol, max_iter, start.iterations
    )
    made += iters - start.iterations
    if status != OPTIMAL:
        return StandardFormSolution(status, None, None, None, None, made)

    y[start.flip] *= -1.0
    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = xb[real]
    return StandardFormSolution(
        status=OPTIMAL,
        x=x,
        objective=float(c @ x),
        basis=basis,
        multipliers=y,
        iterations=made,
    )
