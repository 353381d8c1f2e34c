"""Minimax (Chebyshev) linear regression and extreme-value limit verification.

The estimator minimizing the maximal absolute residual is computed either by
a self-contained simplex solve of its linear program or, for replicated
designs with as many levels as parameters, by the exact midrange closed form.
A Monte Carlo engine verifies the limiting distributions of the maximal
absolute residual and of the estimator's deviations, their convergence
rates, and the limiting covariance structure.
"""

from .closed_form import (
    closed_form_batch,
    closed_form_fit,
    lse_fit,
    midrange_fit,
    solve_cramer,
)
from .errors import (
    DimensionMismatchError,
    DualityGapError,
    EmptyGroupError,
    EmptySampleError,
    ExperimentError,
    ExperimentFailureRateError,
    InfiniteVarianceError,
    InvalidModelError,
    MinimaxRegError,
    RankDeficientError,
    SingularDesignError,
    SolverStatusError,
    TrueParametersUnknownError,
    WrongShapeError,
)
from .evt import (
    AttractionType,
    ErrorModel,
    LimitLaw,
    NormingConstants,
    cdf,
    check_bn_divergence,
    limit_cdf,
    norming_constants,
    quantile,
    sample,
    sample_attraction,
    stream_seed,
    variance_of_attraction,
)
from .lp import (
    DualCertificate,
    LpSolution,
    dual_certificate,
    minimax_fit_lp,
)
from .model import (
    Dataset,
    Design,
    FitResult,
    GroupExtremes,
    ReplicatedDesign,
    group_extremes,
    max_abs_residual,
    residuals,
    simulate_dataset,
)
from .simulation import (
    CovarianceComparison,
    ExperimentConfig,
    MethodDiscrepancy,
    SimulationReport,
    covariance_check,
    cross_validate_methods,
    ecdf_table,
    ks_distance,
    rate_slope,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AttractionType",
    "CovarianceComparison",
    "Dataset",
    "Design",
    "DimensionMismatchError",
    "DualCertificate",
    "DualityGapError",
    "EmptyGroupError",
    "EmptySampleError",
    "ErrorModel",
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentFailureRateError",
    "FitResult",
    "GroupExtremes",
    "InfiniteVarianceError",
    "InvalidModelError",
    "LimitLaw",
    "LpSolution",
    "MethodDiscrepancy",
    "MinimaxRegError",
    "NormingConstants",
    "RankDeficientError",
    "ReplicatedDesign",
    "SimulationReport",
    "SingularDesignError",
    "SolverStatusError",
    "TrueParametersUnknownError",
    "WrongShapeError",
    "cdf",
    "check_bn_divergence",
    "closed_form_batch",
    "closed_form_fit",
    "covariance_check",
    "cross_validate_methods",
    "dual_certificate",
    "ecdf_table",
    "group_extremes",
    "ks_distance",
    "limit_cdf",
    "lse_fit",
    "max_abs_residual",
    "midrange_fit",
    "minimax_fit_lp",
    "norming_constants",
    "quantile",
    "rate_slope",
    "residuals",
    "run_experiment",
    "sample",
    "sample_attraction",
    "simulate_dataset",
    "solve_cramer",
    "stream_seed",
    "variance_of_attraction",
]
