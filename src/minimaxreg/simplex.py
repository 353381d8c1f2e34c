"""Dense primal simplex for standard-form linear programs, from a feasible basis.

Solves   min c.x   subject to   A x = b,  x >= 0,

starting at a feasible basis of [A | I] the caller knows (n + i is
artificial i): there is no phase 1. ``start_at`` pivots the start's
artificials out where a real column can take their row, and its
``FeasibleStart`` depends on (A, basis) alone, so one start can serve any
number of objectives c.

The basis is kept as a set, in ascending column order: the pivot loop sorts
it on entry and after every pivot, and both leaving rules choose by column
index. So the basic solution and the multipliers it reports are read at the
sorted basis, a function of the basis alone and not of the order pivots
left its columns in.

Pricing is Dantzig (most negative reduced cost below -TOL times the scale
of c); after a stall of consecutive degenerate pivots the solver switches
to Bland's rule until a nondegenerate pivot occurs, which guarantees
termination on the highly degenerate bases the minimax fitting problem
produces. The basic solution and the multipliers are derived from the
final basis by direct solves, so no pivoting drift survives into the
reported answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

# Consecutive degenerate pivots tolerated before anti-cycling kicks in.
STALL_LIMIT = 50

# Optimality and pivoting tolerance; pricing scales it by ``pricing_tol``.
TOL = 1e-9


@dataclass
class StandardFormSolution:
    """Terminal state of a standard-form solve.

    ``basis`` holds the final basis's columns in ascending order (n + i is
    artificial i), and ``multipliers`` is the vector y solving B'y = c_B at
    that basis; for an optimal basis these are the duals of the equality
    constraints. ``iterations`` counts the pivots of this solve.
    """

    status: str
    x: Optional[np.ndarray]
    objective: Optional[float]
    basis: Optional[np.ndarray]
    multipliers: Optional[np.ndarray]
    iterations: int


@dataclass(frozen=True)
class FeasibleStart:
    """A feasible basis of [A | I] to start solves of A x = b from.

    ``A1`` is [A | I] and ``basis`` the start. The arrays are read-only, so
    one start can serve any number of solves.
    """

    A1: np.ndarray
    basis: np.ndarray


def pricing_tol(scale):
    """TOL at the scale of costs up to ``scale``: reduced costs are their differences."""
    return TOL * max(1.0, scale)


def _pivot_loop(A, b, c, basis, max_iter):
    """Run simplex pivots on A = [A | I] until optimal/unbounded/limit; the
    artificial columns, the last m, never enter. Mutates basis, which it
    keeps in ascending column order.

    Every basis is priced before the cap is tested, so a solve that is
    optimal after ``max_iter`` pivots reports it. Returns the status, the
    pivot count, and the basic solution and multipliers of the last basis
    priced. Raises LinAlgError on a singular basis or on a basic solution
    that overflowed.
    """
    m, n = A.shape[0], A.shape[1] - A.shape[0]
    tol = pricing_tol(float(np.abs(c).max()))
    iters = stall = 0
    bland = False
    basis.sort()
    while True:
        B = A[:, basis]
        xb = np.linalg.solve(B, b)
        y = np.linalg.solve(B.T, c[basis])
        reduced = c - A.T @ y
        reduced[basis] = 0.0
        candidates = reduced < -tol
        candidates[n:] = False
        if not candidates.any():
            return OPTIMAL, iters, xb, y
        if iters >= max_iter:
            return ITERATION_LIMIT, iters, xb, y
        if bland:
            enter = int(np.flatnonzero(candidates)[0])
        else:
            masked = np.where(candidates, reduced, np.inf)
            enter = int(np.argmin(masked))
        w = np.linalg.solve(B, A[:, enter])
        positive = w > TOL
        if not positive.any():
            return UNBOUNDED, iters, xb, y
        ratios = np.full(m, np.inf)
        ratios[positive] = np.maximum(xb[positive], 0.0) / w[positive]
        t = ratios.min()
        if not np.isfinite(t):
            raise np.linalg.LinAlgError("basic solution is not finite")
        # Ties are in column order, as the basis is sorted. Bland's rule takes the
        # lowest; Dantzig's the highest, driving the artificials (the last) out.
        ties = np.flatnonzero(ratios <= t + 1e-12 * (1.0 + abs(t)))
        leave_row = int(ties[0] if bland else ties[-1])
        basis[leave_row] = enter
        basis.sort()
        iters += 1
        if t <= TOL:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        else:
            stall = 0
            bland = False


def start_at(A, basis) -> FeasibleStart:
    """A start at ``basis``, a feasible basis of [A | I] known already.

    Each basic artificial is pivoted out for the real column outside the
    basis with the largest entry in its row of the basis inverse times A.
    It sits at level 0, so the pivot is degenerate and keeps the basis
    feasible; left in, it would grow under an entering column with a
    negative entry in its row, which the ratio test does not stop. The
    entry counts only above TOL times the largest terms such an entry sums,
    |row| @ max_k |A_k|: rounding leaves a row that is linearly dependent on
    the others at about eps times those, while a row of A at a small scale
    keeps its entries at its own scale. A row no column reaches keeps its
    artificial pinned: no column can move it.
    """
    A = np.asarray(A, dtype=np.float64)
    m, n = A.shape
    A1 = np.hstack([A, np.eye(m)])
    basis = np.array(basis, dtype=np.intp)
    row_scale = np.maximum(A.max(axis=1), -A.min(axis=1))
    for row in np.flatnonzero(basis >= n):
        row_of_inv = np.linalg.solve(A1[:, basis].T, np.eye(m)[row])
        coeff = np.abs(row_of_inv @ A)
        coeff[basis[basis < n]] = 0.0
        enter = np.argmax(coeff)
        if coeff[enter] > TOL * (np.abs(row_of_inv) @ row_scale):
            basis[row] = enter
    A1.flags.writeable = basis.flags.writeable = False
    return FeasibleStart(A1, basis)


def solve_standard_form(A, b, c, *, start: FeasibleStart,
                        max_iter: int | None = None) -> StandardFormSolution:
    """Simplex on  min c.x  s.t.  A x = b, x >= 0, from ``start``.

    ``start`` must be a feasible basis of [A | I] for this b, from
    ``start_at``; ``max_iter`` caps the pivots, at 50 times the columns of
    [A | I] by default.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    m, n = A.shape
    if b.shape[0] != m or c.shape[0] != n:
        raise ValueError(f"inconsistent LP shapes: A {A.shape}, b {b.shape}, c {c.shape}")
    if start.A1.shape != (m, n + m):
        raise ValueError(f"start of shape {start.A1.shape} does not fit A {A.shape}")
    if max_iter is None:
        max_iter = 50 * (m + n)

    # Artificials are frozen out of pricing at cost 0.
    basis = start.basis.copy()
    c1 = np.concatenate([c, np.zeros(m)])
    status, iters, xb, y = _pivot_loop(start.A1, b, c1, basis, max_iter)
    if status != OPTIMAL:
        return StandardFormSolution(status, None, None, None, None, iters)

    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = xb[real]
    return StandardFormSolution(OPTIMAL, x, float(c @ x), basis, y, iters)
