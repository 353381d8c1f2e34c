"""Exact non-LP solution paths: square replicated designs and least squares.

For a replicated design with as many levels as parameters (k = q) and a
nonsingular level matrix, the minimax fit has a closed form: the fitted mean
response at each level is the level midrange of y, and the optimal deviation
is half the largest level range. The coefficients solve V theta = the
level midranges, by one LU solve per replication. On a replicated design,
least squares reads y only through the level means (its theta) and the
level max and min (its largest absolute residual), so both batches fit m
replications from (m, k) arrays of level statistics.
Every fit here reads only the design and y; by translation equivariance,
theta_hat - theta is the same fit of the errors, so no fit needs the true
parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    RankDeficientError,
    SingularDesignError,
    SolverStatusError,
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


def closed_form_batch(V, y_max, y_min):
    """The k = q closed form of m replications at once, from per-level extremes.

    Row r of each (m, k) array holds replication r's per-level maxima or
    minima of y. Returns (delta, theta): delta is half the largest level
    range; theta solves V theta = the level midranges, one LU solve per row,
    so each row has the bits of a one-row call. A singular V fails every
    replication together.
    """
    V = np.asarray(V, dtype=np.float64)
    y_max, y_min = np.asarray(y_max), np.asarray(y_min)
    mid = (y_max + y_min) / 2.0
    q = V.shape[0]
    if V.shape != (q, q) or mid.ndim != 2 or mid.shape[1] != q:
        raise WrongShapeError(f"need a square system, got V {V.shape}, midranges {mid.shape}")
    det_v = float(np.linalg.det(V))
    if abs(det_v) <= singularity_threshold(V):
        raise SingularDesignError(
            f"level matrix is numerically singular (|det| = {abs(det_v):.3e})",
            det=det_v,
        )
    return (y_max - y_min).max(axis=1) / 2.0, np.linalg.solve(V, mid[..., None])[..., 0]


def closed_form_fit(dataset: Dataset) -> FitResult:
    """The closed form on one k = q replicated dataset: the one-row batch.
    An overflowing fit raises SolverStatusError("non_finite"), as the LP's does."""
    design = dataset.design
    if not isinstance(design, ReplicatedDesign):
        raise WrongShapeError("closed-form fit needs a replicated design")
    k, q = design.n_levels, design.n_params
    if k != q:
        raise WrongShapeError(f"closed-form fit needs k = q levels, got k={k}, q={q}")
    z, w = group_extremes_replicated(dataset.y, k, design.reps)
    delta, theta = closed_form_batch(design.levels, z[None], w[None])
    if not (np.isfinite(delta).all() and np.isfinite(theta).all()):
        raise SolverStatusError("closed_form fit: delta or theta is not finite", "non_finite")
    return FitResult(theta_hat=theta[0], delta_hat=delta[0], method="closed_form")


def lse_svd(design: ReplicatedDesign):
    """SVD (U, s, Vt) of the level matrix, with the rank test of ``lstsq``.

    ``np.linalg.lstsq`` on the expanded N x q design cuts singular values at
    eps * max(N, q) times the largest; those of the expansion are sqrt(n)
    times those of V, so the same cut applies to V. Raises
    RankDeficientError when fewer than q singular values pass it.
    """
    V = design.levels
    q = V.shape[1]
    U, s, Vt = np.linalg.svd(V, full_matrices=False)
    rank = int((s > np.finfo(np.float64).eps * max(design.n_obs, q) * s[0]).sum())
    if rank < q:
        raise RankDeficientError(
            f"design has rank {rank} < {q}; least squares fit is not identified"
        )
    return U, s, Vt


def lse_batch(design: ReplicatedDesign, y_mean, y_max, y_min):
    """Least squares of m replications at once, from per-level statistics.

    Row r of each (m, k) array holds replication r's level means, maxima or
    minima of y. On a balanced design the least-squares theta is the one of
    V against the level means, solved here through the SVD of V as ``lstsq``
    solves the expanded design. The residuals at level l span
    [w_l - V_l theta, z_l - V_l theta], so delta, the largest absolute
    residual, is the larger end over all levels. Every product is a stack
    of per-row matrix-vector products, so each row gets the bits of a
    one-row call.
    """
    U, s, Vt = lse_svd(design)
    y_max, y_min = np.asarray(y_max), np.asarray(y_min)
    coef = (U.T @ np.asarray(y_mean)[..., None])[..., 0] / s
    theta = (Vt.T @ coef[..., None])[..., 0]
    fitted = (design.levels @ theta[..., None])[..., 0]
    return np.maximum(y_max - fitted, fitted - y_min).max(axis=1), theta


def lse_fit(dataset: Dataset) -> FitResult:
    """Least squares, with the max absolute residual for comparability.

    A replicated design is the one-row case of ``lse_batch``; a plain one
    goes through ``np.linalg.lstsq``.
    """
    design = dataset.design
    if isinstance(design, ReplicatedDesign):
        z, w = group_extremes_replicated(dataset.y, design.n_levels, design.reps)
        mean = dataset.y.reshape(design.n_levels, design.reps).mean(axis=1)
        delta, theta = lse_batch(design, mean[None], z[None], w[None])
        return FitResult(theta_hat=theta[0], delta_hat=delta[0], method="lse")
    X = design.matrix()
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
