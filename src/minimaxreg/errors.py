"""Exception types shared across the package."""

from __future__ import annotations


class MinimaxRegError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(MinimaxRegError):
    """Array shapes do not line up (design rows vs responses vs parameters)."""


class SingularDesignError(MinimaxRegError):
    """Level matrix (or design) is numerically singular.

    Carries the offending determinant when available.
    """

    def __init__(self, message: str, det: float | None = None):
        super().__init__(message)
        self.det = det


class WrongShapeError(MinimaxRegError):
    """Operation requires a specific design shape (e.g. k = q) that does not hold."""


class RankDeficientError(MinimaxRegError):
    """Design matrix does not have full column rank."""


class DualityGapError(MinimaxRegError):
    """Primal and dual objective values disagree beyond tolerance (solver bug signal)."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


class InvalidModelError(MinimaxRegError):
    """Error-distribution family or parameters are invalid/unsupported."""


class InfiniteVarianceError(MinimaxRegError):
    """Requested a covariance comparison for an attraction law without finite variance."""


class ExperimentError(MinimaxRegError):
    """Monte Carlo experiment configuration or execution failure."""


class ExperimentFailureRateError(ExperimentError):
    """Per-replication fit failures exceeded the acceptable rate.

    ``causes`` counts the failures by cause: the ``SolverStatusError.status``
    of an LP fit, or "singular_levels" for the closed form.
    """

    def __init__(self, message: str, failures: int, total: int,
                 causes: dict | None = None):
        super().__init__(message)
        self.failures = failures
        self.total = total
        self.causes = {} if causes is None else causes


class SolverStatusError(MinimaxRegError):
    """LP solve did not reach optimality.

    ``status`` is "iteration_limit" when the simplex hit its pivot cap,
    "infeasible" when it found the dual unbounded (the minimax LP is always
    feasible, so only rounding makes it so), "singular_basis" when a basis
    matrix was numerically singular or its basic solution overflowed, or
    "non_finite" when the LP point is not finite; all happen only on badly
    scaled data. ``fit`` also raises "non_finite" for a report value that is
    not finite, and "residual_above_delta" for a row that
    ``model.rows_beyond_delta`` refuses.
    """

    def __init__(self, message: str, status: str):
        super().__init__(message)
        self.status = status


class EmptySampleError(MinimaxRegError):
    """A statistic was requested for an empty sample."""
