"""Minimax fitting as a linear program, with a dual optimality certificate.

The fitting problem  min_tau max_j |y_j - x_j.tau|  is the LP

    min Delta   s.t.   x_j.tau + Delta >= y_j,   -x_j.tau + Delta >= -y_j,

with tau free. Because every constraint row carries Delta with coefficient
one and the rows come in +/- pairs, Delta >= max_j |r_j| >= 0 is implied, so
the explicit lower bound on Delta is redundant and the LP dual lives on

    D* = { u >= 0 :  sum_r u_r a_r = 0,  sum_r u_r = 1 },

maximizing  sum_r u_r h_r  over the constraint rows (a_r, h_r). The solver
works on that dual in standard form: its q+1 rows make each pivot cheap no
matter how many observations there are, the optimal basic solution IS the
dual certificate, and the final-basis multipliers hand back (tau, Delta).

For replicated designs the per-level maximum absolute deviation is attained
at the level maximum or minimum, so the 2N constraints collapse to 2k rows
built from per-level extremes of y; the dual variables of that reduced
system are exactly the per-level multipliers (u_1..u_k, u'_1..u'_k).

``minimax_fit_lp`` is the one way in: ``_minimax_rows`` lays out the rows
of a dataset, reduced when it is replicated, and ``_solve_rows`` solves
them. ``dual_certificate`` checks a solution against the same rows.

The dual's constraints [G'; 1'] u = e_{q+1} involve only the regressors;
y enters through the objective alone. For the group rows G = [V; -V] the
simplex's phase 1 is therefore cached per level matrix, and every fit on
those levels runs only phase 2 from the cached start, which yields the
bits of a cold solve. Observation rows are solved cold: they rarely repeat,
and a cache key would be the whole N x q design.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import simplex
from .errors import (
    DimensionMismatchError,
    DualityGapError,
    SolverStatusError,
)
from .model import (
    Dataset,
    FitResult,
    ReplicatedDesign,
    group_extremes_replicated,
)

# Basic multipliers at or below this level flag a degenerate optimal basis.
NONUNIQUE_TOL = 1e-9

# Duality gap allowed by the certificate, relative to max(1, the largest |h_r|).
DUALITY_GAP_TOL = 1e-8


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


def _dual_system(G: np.ndarray) -> tuple:
    """(A, b) of the dual  A u = b, u >= 0:  G'u = 0 and sum(u) = 1."""
    n_rows, q = G.shape
    # Filled in place: A is C-ordered, so the simplex need not copy it.
    A = np.empty((q + 1, n_rows))
    A[:q] = G.T
    A[q] = 1.0
    b = np.zeros(q + 1)
    b[q] = 1.0
    return A, b


@functools.lru_cache(maxsize=8)
def _group_dual_system(g_bytes: bytes, shape: tuple) -> tuple:
    """The dual system of the group rows G = [V; -V] and its phase-1 start.

    Both depend on the levels alone, so every replication of a design shares
    them; the start's arrays are read-only.
    """
    A, b = _dual_system(np.frombuffer(g_bytes).reshape(shape))
    A.flags.writeable = b.flags.writeable = False
    return A, b, simplex.feasible_start(A, b)


def _solve_rows(G: np.ndarray, h: np.ndarray, scheme: tuple) -> LpSolution:
    """Solve  min Delta  s.t.  G_r.tau + Delta >= h_r  through its dual.

    Raises SolverStatusError unless the simplex reaches optimality: the
    minimax LP always has an optimum, so a non-optimal status or a singular
    basis comes from rounding on badly scaled data.
    """
    n_rows = G.shape[0]
    try:
        if scheme[0] == "group":
            A_dual, b_dual, start = _group_dual_system(G.tobytes(), G.shape)
        else:
            A_dual, b_dual = _dual_system(G)
            start = None
        res = simplex.solve_standard_form(A_dual, b_dual, -h, start=start)
    except np.linalg.LinAlgError as exc:
        raise SolverStatusError(f"LP basis is singular: {exc}", "singular_basis") from exc
    if res.status != simplex.OPTIMAL:
        # An unbounded dual means an infeasible minimax LP, so report both
        # as the LP's infeasibility.
        status = res.status if res.status == simplex.ITERATION_LIMIT else simplex.INFEASIBLE
        raise SolverStatusError(f"LP terminated with status {status}", status)
    primal = -res.multipliers
    u = res.x
    # A basic multiplier at level ~0 (including a pinned artificial on a
    # dependent row) signals alternative optimal bases, hence a possibly
    # non-unique fitted theta.
    basic_vals = np.array([u[j] if j < n_rows else 0.0 for j in res.basis])
    degenerate = bool(np.any(basic_vals <= NONUNIQUE_TOL))
    return LpSolution(
        value=float(h @ u),
        primal=primal,
        dual=u,
        scheme=scheme,
        degenerate_basis=degenerate,
    )


def _minimax_rows(dataset: Dataset):
    """Constraint rows (G, h) and scheme for the dataset, reduced if replicated."""
    design = dataset.design
    if isinstance(design, ReplicatedDesign):
        ext = group_extremes_replicated(dataset.y, design.n_levels, design.reps)
        V = design.levels
        G = np.vstack([V, -V])
        h = np.concatenate([ext.z, -ext.w])
        return G, h, ("group", design.n_levels)
    X = design.matrix()
    G = np.vstack([X, -X])
    h = np.concatenate([dataset.y, -dataset.y])
    return G, h, ("observation", design.n_obs)


def minimax_fit_lp(dataset: Dataset) -> FitResult:
    """Fit by the LP route and package diagnostics.

    Raises SolverStatusError when the solve does not reach optimality; the
    Monte Carlo engine treats that as a recorded per-replication failure.
    """
    sol = _solve_rows(*_minimax_rows(dataset))
    return FitResult(
        theta_hat=sol.theta,
        delta_hat=float(sol.value),
        method="lp_primal",
        diagnostics={
            "duality_gap": abs(float(sol.delta) - float(sol.value)),
            "nonunique_suspected": sol.degenerate_basis,
        },
        lp_solution=sol,
    )


def dual_certificate(dataset: Dataset, solution: LpSolution) -> DualCertificate:
    """Validate the dual point of a solved minimax LP against the dataset.

    Rebuilds the dataset's constraint rows, checks feasibility in the dual
    domain (zero-sum rows, normalization, nonnegativity) and that the dual
    objective matches the primal optimum; a gap beyond the tolerance, scaled
    by max(1, the largest |h_r|), raises DualityGapError since it signals a
    solver bug rather than a property of the data.
    """
    G, h, scheme = _minimax_rows(dataset)
    dual = solution.dual
    if solution.scheme != scheme or dual.shape != h.shape:
        raise DimensionMismatchError(
            f"solution of scheme {solution.scheme} with {dual.shape[0]} duals does not "
            f"match the dataset's scheme {scheme}"
        )
    value = float(h @ dual)
    # Compare the recomputed dual objective against the primal-side optimum
    # (Delta read off the final-basis multipliers).
    gap = abs(value - solution.delta)
    tol = DUALITY_GAP_TOL * max(1.0, float(np.abs(h).max()))
    if gap > tol:
        raise DualityGapError(f"duality gap {gap:.3e} exceeds tolerance {tol:.1e}", gap)
    half = scheme[1]
    return DualCertificate(
        u=dual[:half],
        u_prime=dual[half:],
        value=value,
        gap=gap,
        zero_sum_residual=G.T @ dual,
        normalization_residual=float(dual.sum() - 1.0),
        min_multiplier=float(dual.min()),
        scheme=scheme,
    )
