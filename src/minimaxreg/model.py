"""Regression data structures, residuals, and group extreme statistics.

Everything here is immutable after construction and safe for concurrent use;
the fitting and simulation modules build on these types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyGroupError,
    TrueParametersUnknownError,
)


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
        uniq = np.unique(lv, axis=0)
        if uniq.shape[0] != lv.shape[0]:
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

    def group_index(self) -> np.ndarray:
        """Level label of each observation, in observation order."""
        return np.repeat(np.arange(self.n_levels), self.reps)

    def matrix(self) -> np.ndarray:
        """Lossless expansion to the full N x q design matrix."""
        return np.repeat(self.levels, self.reps, axis=0)


AnyDesign = Union[Design, ReplicatedDesign]


@dataclass(frozen=True)
class Dataset:
    """A design paired with responses and, in simulation mode, the true parameters.

    When ``true_theta`` is present the error vector is recoverable exactly as
    ``y - X @ true_theta``; without it, error-based statistics are refused.
    """

    design: AnyDesign
    y: np.ndarray
    true_theta: Optional[np.ndarray] = None

    def __init__(self, design: AnyDesign, y, true_theta=None):
        if not isinstance(design, (Design, ReplicatedDesign)):
            raise DimensionMismatchError("design must be a Design or ReplicatedDesign")
        yv = _as_vector(y, "y")
        if yv.shape[0] != design.n_obs:
            raise DimensionMismatchError(
                f"y has {yv.shape[0]} entries but design has {design.n_obs} rows"
            )
        th = None
        if true_theta is not None:
            th = _as_vector(true_theta, "true_theta")
            if th.shape[0] != design.n_params:
                raise DimensionMismatchError(
                    f"true_theta has {th.shape[0]} entries but design has {design.n_params} columns"
                )
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "y", yv)
        object.__setattr__(self, "true_theta", th)

    @property
    def n_obs(self) -> int:
        return self.design.n_obs

    @property
    def n_params(self) -> int:
        return self.design.n_params

    def errors(self) -> np.ndarray:
        """True error vector y - X theta; requires known true parameters."""
        if self.true_theta is None:
            raise TrueParametersUnknownError(
                "true parameters unknown: error statistics are defined on the "
                "errors, not on residuals of a fitted value"
            )
        return residuals(self, self.true_theta)


@dataclass(frozen=True)
class GroupExtremes:
    """Per-level max/min/range/midrange of a value vector.

    A single-group call yields the global statistics as length-1 arrays.
    """

    z: np.ndarray
    w: np.ndarray
    r: np.ndarray = field(init=False)
    q: np.ndarray = field(init=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        w = np.asarray(self.w, dtype=np.float64)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "r", z - w)
        object.__setattr__(self, "q", (z + w) / 2.0)
        for a in (self.z, self.w, self.r, self.q):
            a.setflags(write=False)

    @property
    def n_levels(self) -> int:
        return self.z.shape[0]


def residuals(dataset: Dataset, theta) -> np.ndarray:
    """Residual vector y_j - sum_i theta_i x_ji, in observation order."""
    th = np.asarray(theta, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(th)):
        raise DimensionMismatchError("theta contains non-finite entries")
    if th.shape[0] != dataset.n_params:
        raise DimensionMismatchError(
            f"theta has {th.shape[0]} entries but design has {dataset.n_params} columns"
        )
    return dataset.y - dataset.design.matrix() @ th


def max_abs_residual(dataset: Dataset, theta) -> float:
    """The maximal absolute residual of theta on the dataset."""
    return float(np.abs(residuals(dataset, theta)).max())


def group_extremes(values, grouping=None) -> GroupExtremes:
    """Per-level max, min, range, and midrange of ``values``.

    ``grouping`` is an integer label vector with levels 0..k-1 partitioning
    the observations (as produced by ``ReplicatedDesign.group_index``), or
    None for a single global group. Every level in 0..max(label) must be
    populated.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.shape[0] == 0:
        raise EmptyGroupError("cannot take extremes of an empty value vector")
    if grouping is None:
        return GroupExtremes(z=np.array([v.max()]), w=np.array([v.min()]))
    g = np.asarray(grouping)
    if g.shape[0] != v.shape[0]:
        raise DimensionMismatchError(
            f"grouping has {g.shape[0]} labels for {v.shape[0]} values"
        )
    if g.min() < 0:
        raise EmptyGroupError("group labels must be nonnegative integers")
    k = int(g.max()) + 1
    counts = np.bincount(g, minlength=k)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise EmptyGroupError(f"group {missing} has no observations")
    order = np.argsort(g, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    sorted_v = v[order]
    z = np.maximum.reduceat(sorted_v, starts)
    w = np.minimum.reduceat(sorted_v, starts)
    return GroupExtremes(z=z, w=w)


def group_extremes_replicated(values, k: int, n: int) -> GroupExtremes:
    """Fast path for the canonical contiguous level-major layout."""
    v = np.asarray(values, dtype=np.float64).reshape(k, n)
    return GroupExtremes(z=v.max(axis=1), w=v.min(axis=1))


@dataclass(frozen=True)
class FitResult:
    """Outcome of a parameter fit.

    ``delta_hat`` is the maximal absolute residual of ``theta_hat`` on the
    dataset (up to solver tolerance for LP fits). ``d_hat`` is theta_hat minus
    the true parameters when those are known. ``diagnostics`` carries method
    specific extras: the LP's duality gap and non-uniqueness flag, and, for
    the LP and the closed form on a replicated design with known parameters,
    the per-level gamma values V d_hat. Least squares carries none.
    """

    theta_hat: np.ndarray
    delta_hat: float
    method: str
    d_hat: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)
    lp_solution: Optional[object] = None

    def __post_init__(self):
        th = np.asarray(self.theta_hat, dtype=np.float64).reshape(-1)
        th.setflags(write=False)
        object.__setattr__(self, "theta_hat", th)
        object.__setattr__(self, "delta_hat", float(self.delta_hat))
        if self.d_hat is not None:
            dh = np.asarray(self.d_hat, dtype=np.float64).reshape(-1)
            dh.setflags(write=False)
            object.__setattr__(self, "d_hat", dh)


def simulate_dataset(design: AnyDesign, theta, epsilon) -> Dataset:
    """Assemble a simulation-mode dataset from a design, true theta, and errors.

    The stored errors are re-derived as y - X theta in float arithmetic so that
    ``residuals(dataset, true_theta)`` reproduces them bit-exactly.
    """
    th = _as_vector(theta, "theta")
    eps = np.asarray(epsilon, dtype=np.float64).reshape(-1)
    X = design.matrix()
    if th.shape[0] != design.n_params or eps.shape[0] != design.n_obs:
        raise DimensionMismatchError("theta/epsilon shapes do not match the design")
    y = X @ th + eps
    return Dataset(design, y, true_theta=th)
