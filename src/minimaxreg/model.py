"""Regression data structures, residuals, and per-level extremes.

Everything here is immutable after construction and safe for concurrent use;
the fitting and simulation modules build on these types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DimensionMismatchError


def _as_matrix(rows, name: str = "rows") -> np.ndarray:
    a = np.asarray(rows, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatchError(f"{name} must be a nonempty 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    a = a.copy()
    a.setflags(write=False)
    return a


def _as_vector(values, name: str = "values") -> np.ndarray:
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    v = v.copy()
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class Design:
    """A plain N x q regression design matrix.

    N >= q is not required: the minimax fit stays well posed, only uniqueness
    of the fitted parameters may be lost.
    """

    rows: np.ndarray

    def __init__(self, rows):
        object.__setattr__(self, "rows", _as_matrix(rows, "design rows"))

    @property
    def n_obs(self) -> int:
        return self.rows.shape[0]

    @property
    def n_params(self) -> int:
        return self.rows.shape[1]

    def matrix(self) -> np.ndarray:
        return self.rows


@dataclass(frozen=True)
class ReplicatedDesign:
    """A design whose rows take k distinct level vectors, each observed n times.

    Observations are stored level-major: level l occupies the contiguous index
    range [l*n, (l+1)*n). Only the partition matters to every statistic, so the
    contiguous layout is canonical.
    """

    levels: np.ndarray
    reps: int

    def __init__(self, levels, reps: int):
        lv = _as_matrix(levels, "levels")
        reps = int(reps)
        if reps < 1:
            raise DimensionMismatchError(f"replication count must be >= 1, got {reps}")
        # Replication structure is only meaningful for distinct level rows.
        if np.unique(lv, axis=0).shape[0] != lv.shape[0]:
            raise DimensionMismatchError("level rows must be pairwise distinct")
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "reps", reps)

    @property
    def n_levels(self) -> int:
        return self.levels.shape[0]

    @property
    def n_params(self) -> int:
        return self.levels.shape[1]

    @property
    def n_obs(self) -> int:
        return self.n_levels * self.reps

    def matrix(self) -> np.ndarray:
        """Lossless expansion to the full N x q design matrix."""
        return np.repeat(self.levels, self.reps, axis=0)


AnyDesign = Union[Design, ReplicatedDesign]


@dataclass(frozen=True)
class Dataset:
    """A design paired with responses: what every fit reads.

    A simulation's errors are ``residuals(dataset, theta)`` for its true theta.
    """

    design: AnyDesign
    y: np.ndarray

    def __init__(self, design: AnyDesign, y):
        if not isinstance(design, (Design, ReplicatedDesign)):
            raise DimensionMismatchError("design must be a Design or ReplicatedDesign")
        yv = _as_vector(y, "y")
        if yv.shape[0] != design.n_obs:
            raise DimensionMismatchError(
                f"y has {yv.shape[0]} entries but design has {design.n_obs} rows"
            )
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "y", yv)

    @property
    def n_obs(self) -> int:
        return self.design.n_obs

    @property
    def n_params(self) -> int:
        return self.design.n_params


def residuals(dataset: Dataset, theta) -> np.ndarray:
    """Residual vector y_j - sum_i theta_i x_ji, in observation order; a
    replicated design's mean is V theta, one value per level."""
    th = np.asarray(theta, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(th)):
        raise DimensionMismatchError("theta contains non-finite entries")
    if th.shape[0] != dataset.n_params:
        raise DimensionMismatchError(
            f"theta has {th.shape[0]} entries but design has {dataset.n_params} columns"
        )
    return dataset.y - _mean(dataset.design, th)


def rows_beyond_delta(abs_resid, delta: float, y, X, theta) -> np.ndarray:
    """The rows j, in order, whose abs_resid[j] = |y_j - x_j.theta| refutes
    delta as theta's largest residual (Chebyshev's optimality condition):
    those beyond delta + 1024 eps (|y_j| + |x_j|.|theta|), the bound taken
    on the rows beyond delta alone, and those not finite."""
    over = np.flatnonzero(~(abs_resid <= delta))
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.abs(y[over]) + np.abs(X[over]) @ np.abs(theta)
        # inf - inf is nan: an overflowed residual fails against any bound.
        return over[~(abs_resid[over] - (delta + 1024 * np.finfo(float).eps * scale) <= 0.0)]


def max_abs_residual(dataset: Dataset, theta) -> float:
    """The maximal absolute residual of theta on the dataset."""
    return float(np.abs(residuals(dataset, theta)).max())


def group_extremes_replicated(values, k: int, n: int) -> tuple:
    """Per-level max z and min w of ``values`` laid out level-major, k x n."""
    v = np.asarray(values, dtype=np.float64).reshape(k, n)
    return v.max(axis=1), v.min(axis=1)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a parameter fit, a function of the design and y alone.

    ``delta_hat`` is the maximal absolute residual of ``theta_hat`` on the
    dataset (up to solver tolerance for LP fits). In a simulation,
    theta_hat - theta is the estimation error. ``diagnostics`` carries the
    LP's duality gap and non-uniqueness flag; the closed form and least
    squares carry none.
    """

    theta_hat: np.ndarray
    delta_hat: float
    method: str
    diagnostics: dict = field(default_factory=dict)
    lp_solution: Optional[object] = None

    def __post_init__(self):
        th = np.asarray(self.theta_hat, dtype=np.float64).reshape(-1)
        th.setflags(write=False)
        object.__setattr__(self, "theta_hat", th)
        object.__setattr__(self, "delta_hat", float(self.delta_hat))


def _mean(design: AnyDesign, theta: np.ndarray) -> np.ndarray:
    """X theta in observation order. A replicated design's is V theta, one
    value per level, each repeated n times: the design is never expanded."""
    if isinstance(design, ReplicatedDesign):
        return np.repeat(design.levels @ theta, design.reps)
    return design.rows @ theta


def simulate_dataset(design: AnyDesign, theta, epsilon) -> Dataset:
    """The dataset y = X theta + epsilon of a design, true theta and errors.

    The mean of a replicated design is V theta, one value per level.
    ``residuals(dataset, theta)`` gives back the errors as y minus that same
    mean, in float arithmetic.
    """
    th = _as_vector(theta, "theta")
    eps = np.asarray(epsilon, dtype=np.float64).reshape(-1)
    if th.shape[0] != design.n_params or eps.shape[0] != design.n_obs:
        raise DimensionMismatchError("theta/epsilon shapes do not match the design")
    return Dataset(design, _mean(design, th) + eps)
