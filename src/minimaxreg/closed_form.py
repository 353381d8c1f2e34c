"""Exact non-LP solution paths: midrange fits, square replicated designs, LSE.

For a replicated design with as many levels as parameters (k = q) and a
nonsingular level matrix, the minimax fit has a closed form: the fitted mean
response at each level is the level midrange of y, and the optimal deviation
is half the largest level range. The coefficients follow by Cramer's rule.
Every fit here reads only the design and y; by translation equivariance,
theta_hat - theta is the same fit of the errors, so no fit needs the true
parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    EmptyGroupError,
    RankDeficientError,
    SingularDesignError,
    WrongShapeError,
)
from .model import (
    Dataset,
    FitResult,
    ReplicatedDesign,
    group_extremes_replicated,
)


def singularity_threshold(V: np.ndarray) -> float:
    """|det V| at or below this is treated as singular."""
    q = V.shape[0]
    scale = float(np.abs(V).max())
    return 1e-12 * scale**q


def midrange_fit(values) -> tuple[float, float]:
    """Minimizer and optimal value of  min_s max_j |t_j - s|.

    Returns (midrange, half range): the one-dimensional minimax fit.
    """
    t = np.asarray(values, dtype=np.float64).reshape(-1)
    if t.shape[0] == 0:
        raise EmptyGroupError("midrange of an empty sequence is undefined")
    z = float(t.max())
    w = float(t.min())
    return (z + w) / 2.0, (z - w) / 2.0


# Most floats one stacked det call holds; larger stacks go in chunks.
_DET_CHUNK_FLOATS = 1_000_000


def solve_cramer(V, rhs) -> np.ndarray:
    """Solve V d = rhs by ratios of determinants (LU-based determinants).

    ``rhs`` is one right-hand side of length q or a stack of shape (m, q)
    solved row by row. A stack goes through stacked ``det`` calls, which give
    every matrix the bits a ``det`` call of its own would.
    """
    V = np.asarray(V, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    q = V.shape[0]
    if V.shape != (q, q) or rhs.ndim not in (1, 2) or rhs.shape[-1] != q:
        raise WrongShapeError(f"need a square system, got V {V.shape}, rhs {rhs.shape}")
    det_v = float(np.linalg.det(V))
    if abs(det_v) <= singularity_threshold(V):
        raise SingularDesignError(
            f"level matrix is numerically singular (|det| = {abs(det_v):.3e})",
            det=det_v,
        )
    stack = rhs.reshape(-1, q)
    out = np.empty(stack.shape)
    cols = np.arange(q)
    chunk = max(1, _DET_CHUNK_FLOATS // q**3)
    for start in range(0, stack.shape[0], chunk):
        part = stack[start:start + chunk]
        # mats[r, i] is V with column i replaced by right-hand side r.
        mats = np.broadcast_to(V, (part.shape[0], q, q, q)).copy()
        mats[:, cols, :, cols] = part
        out[start:start + chunk] = np.linalg.det(mats) / det_v
    return out.reshape(rhs.shape)


def closed_form_batch(V, y_max, y_min):
    """The k = q closed form of m replications at once, from per-level extremes.

    Row r of each (m, k) array holds replication r's per-level maxima or
    minima of y. Returns (delta, theta): delta is half the largest level
    range; theta solves V theta = the level midranges. A singular V fails
    every replication together.
    """
    y_max, y_min = np.asarray(y_max), np.asarray(y_min)
    return (y_max - y_min).max(axis=1) / 2.0, solve_cramer(V, (y_max + y_min) / 2.0)


def closed_form_fit(dataset: Dataset) -> FitResult:
    """The closed form on one k = q replicated dataset: the one-row batch."""
    design = dataset.design
    if not isinstance(design, ReplicatedDesign):
        raise WrongShapeError("closed-form fit needs a replicated design")
    k, q = design.n_levels, design.n_params
    if k != q:
        raise WrongShapeError(f"closed-form fit needs k = q levels, got k={k}, q={q}")
    ext = group_extremes_replicated(dataset.y, k, design.reps)
    delta, theta = closed_form_batch(design.levels, ext.z[None], ext.w[None])
    return FitResult(theta_hat=theta[0], delta_hat=delta[0], method="closed_form")


def lse_fit(dataset: Dataset) -> FitResult:
    """Least squares baseline, with the max absolute residual for comparability."""
    X = dataset.design.matrix()
    y = dataset.y
    q = X.shape[1]
    theta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < q:
        raise RankDeficientError(
            f"design has rank {rank} < {q}; least squares fit is not identified"
        )
    return FitResult(
        theta_hat=theta,
        delta_hat=float(np.abs(y - X @ theta).max()),
        method="lse",
    )
