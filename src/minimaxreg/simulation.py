"""Monte Carlo engine for the limit-theorem verification experiments.

Generates replicated-design regression data, fits every configured method on
the same error draws (paired comparison), and aggregates scaled samples, KS
distances against the applicable limit laws, quantile tables, rate slopes,
and covariance comparisons into a reproducible report.

Stream discipline: at sample size n, replication r's k*n uniforms are the
draws r*k*n onwards of one Philox stream, ``stream_seed(master_seed, n, 0)``;
the two direct-simulation reference samples are streams 1 and 2. Results
are therefore bit-identical for a given master seed regardless of execution
order or the number of worker processes. Every stream is read with
``evt.uniforms`` from fixed offsets: replications in blocks of up to 1 MiB
of uniforms, each block one contiguous read, and the references in column
blocks of about 1 MiB, so memory does not grow with ``reference_draws``.

The mean of y is mu = V @ theta, one value per level, as ``simulate_dataset``
and ``residuals`` form it; the design is never expanded. Each replication
reaches the minimax fits only through its level max and min, and order
statistics commute with non-decreasing maps: fl(mu_l + x) and fl(y - mu_l)
are non-decreasing in x and y, so the level extremes of y are mu_l plus
those of the errors, and the errors' are those of y minus mu_l, bit for bit.
Likewise max_i F^-1(u_i) = F^-1(max_i u_i), so unless ``lse`` needs the
level means of y, the engine transforms only the 2k level extremes of the
uniforms per replication instead of kn. Gaussian keeps the full transform:
scipy's ``ndtri`` falls by a few ulps between some neighbouring doubles, so
the transformed maximum need not be the maximum of the transforms.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import evt
from .closed_form import closed_form_batch, lse_batch, lse_svd
from .errors import (
    EmptySampleError,
    ExperimentError,
    ExperimentFailureRateError,
    InfiniteVarianceError,
    InvalidModelError,
    RankDeficientError,
    SingularDesignError,
    SolverStatusError,
)
from .evt import ErrorModel, LimitLaw
from .lp import minimax_fit_lp
from .model import Dataset, ReplicatedDesign

METHODS = ("lp", "closed_form", "lse")

# Per-replication fit failures beyond this fraction invalidate the run.
MAX_FAILURE_RATE = 1e-3

# Slack allowed on the almost-sure bound checks, relative to max(1, max |y|)
# of the replication.
BOUND_TOL = 1e-12

QUANTILE_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)

# Uniforms sampled at once: 1 MiB of float64, rounded down to whole
# replications, and one replication where that holds more.
SAMPLE_BLOCK_DRAWS = 1 << 17


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a Monte Carlo run needs, including its reproducibility seed."""

    model: ErrorModel
    levels: np.ndarray
    n_values: tuple
    replications: int
    master_seed: int
    true_theta: np.ndarray
    methods: tuple = ("lp",)
    reference_draws: int = 1_000_000
    ks_threshold: float = 0.05
    jobs: int = 1

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=np.float64)
        if lv.ndim == 1:
            lv = lv.reshape(-1, 1)
        object.__setattr__(self, "levels", lv)
        th = np.asarray(self.true_theta, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "true_theta", th)
        ns = tuple(int(n) for n in (self.n_values if np.iterable(self.n_values) else [self.n_values]))
        object.__setattr__(self, "n_values", ns)
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.replications < 1:
            raise ExperimentError(f"replications must be >= 1, got {self.replications}")
        if self.master_seed < 0:
            raise ExperimentError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {self.jobs}")
        if self.reference_draws < 1:
            raise ExperimentError(f"reference_draws must be >= 1, got {self.reference_draws}")
        if not 0.0 < self.ks_threshold <= 1.0:
            raise ExperimentError(f"ks_threshold must be in (0, 1], got {self.ks_threshold}")
        if len(ns) == 0 or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ExperimentError(f"n ladder must be strictly increasing, got {ns}")
        if any(n < 2 for n in ns):
            raise ExperimentError("every n must be >= 2")
        if th.shape[0] != lv.shape[1]:
            raise ExperimentError(
                f"theta has {th.shape[0]} entries but levels have {lv.shape[1]} columns"
            )
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ExperimentError(f"unknown methods {unknown}; valid: {METHODS}")
        if not self.methods:
            raise ExperimentError("at least one method is required")
        if len(set(self.methods)) != len(self.methods):
            raise ExperimentError(f"methods must not repeat, got {list(self.methods)}")
        if "closed_form" in self.methods and lv.shape[0] != lv.shape[1]:
            raise ExperimentError(
                f"closed_form needs k = q levels, got k={lv.shape[0]}, q={lv.shape[1]}"
            )
        # Level-row distinctness is enforced here so a bad config fails fast.
        ReplicatedDesign(lv, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = lv @ th
        if not (np.all(np.isfinite(th)) and np.all(np.isfinite(mean))):
            raise ExperimentError(
                f"theta must be finite with a finite mean V theta, got {th.tolist()}"
            )
        if "lse" in self.methods:
            # lse_batch's rank test cuts widest at the largest n.
            try:
                lse_svd(ReplicatedDesign(lv, ns[-1]))
            except RankDeficientError as exc:
                raise ExperimentError(f"lse needs rank(V) = q: {exc}") from None

    @property
    def k(self) -> int:
        return self.levels.shape[0]

    @property
    def q(self) -> int:
        return self.levels.shape[1]

    def echo(self) -> dict:
        return {
            "family": self.model.family,
            "alpha": self.model.alpha,
            "levels": [[float(v) for v in row] for row in self.levels],
            "n_values": list(self.n_values),
            "replications": self.replications,
            "master_seed": int(self.master_seed),
            "true_theta": [float(t) for t in self.true_theta],
            "methods": list(self.methods),
            "reference_draws": int(self.reference_draws),
            "ks_threshold": float(self.ks_threshold),
        }


@dataclass(frozen=True)
class MethodSamples:
    """Raw and scaled per-replication outcomes for one (n, method) cell."""

    method: str
    delta: np.ndarray
    theta: np.ndarray
    nonunique: np.ndarray
    valid: np.ndarray
    failures: int
    delta_scaled: np.ndarray
    theta_scaled: np.ndarray
    ks: dict
    theta_abs_quantiles: list
    theta_scaled_cov: Optional[np.ndarray]


@dataclass(frozen=True)
class PerNResult:
    n: int
    a_n: float
    b_n: float
    methods: dict


@dataclass(frozen=True)
class SimulationReport:
    config: ExperimentConfig
    per_n: list
    rate_slopes: dict
    bound_checks: dict

    def cell(self, n: int, method: str) -> MethodSamples:
        for entry in self.per_n:
            if entry.n == n:
                return entry.methods[method]
        raise KeyError(f"no results for n={n}")

    def to_dict(self) -> dict:
        """Plain-type summary with stable structure for canonical serialization."""
        results = []
        for entry in self.per_n:
            methods = {}
            for name in sorted(entry.methods):
                cell = entry.methods[name]
                methods[name] = {
                    "failures": int(cell.failures),
                    "replications_used": int(cell.valid.sum()),
                    "nonunique_count": int(cell.nonunique[cell.valid].sum()),
                    "ks": {k: float(v) for k, v in sorted(cell.ks.items())},
                    "theta_abs_quantile_grid": list(QUANTILE_GRID),
                    "theta_abs_quantiles": [
                        [float(v) for v in row] for row in cell.theta_abs_quantiles
                    ],
                    "theta_scaled_cov": (
                        None if cell.theta_scaled_cov is None
                        else [[float(v) for v in row] for row in cell.theta_scaled_cov]
                    ),
                    "delta_scaled_median": float(np.median(cell.delta_scaled)),
                }
            results.append(
                {"n": entry.n, "a_n": entry.a_n, "b_n": entry.b_n, "methods": methods}
            )
        return {
            "config": self.config.echo(),
            "results": results,
            "rate_slopes": {m: list(slopes) for m, slopes in sorted(self.rate_slopes.items())},
            "bound_checks": self.bound_checks,
        }


def ks_distance(samples, target: Union[LimitLaw, np.ndarray]) -> float:
    """Two-sided Kolmogorov-Smirnov distance of a sample to a target CDF.

    The target is a LimitLaw or a reference sample whose empirical CDF stands
    in for the law (direct-simulation targets); the sup is taken at the
    sample's step points. The engine counts its own references block by
    block instead (``_detlaw_ks``), and ends in the same ``_ks_at_steps``.
    """
    s = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
    m = s.shape[0]
    if m == 0:
        raise EmptySampleError("KS distance of an empty sample is undefined")
    if isinstance(target, LimitLaw):
        f = evt.limit_cdf(target, s)
    else:
        ref = np.sort(np.asarray(target, dtype=np.float64).reshape(-1))
        if ref.shape[0] == 0:
            raise EmptySampleError("empty reference sample")
        f = np.searchsorted(ref, s, side="right") / ref.shape[0]
    return _ks_at_steps(f)


def _ks_at_steps(f: np.ndarray) -> float:
    """KS distance of a sorted sample of m points whose target CDF there is f."""
    m = f.shape[0]
    grid_hi = np.arange(1, m + 1) / m
    grid_lo = np.arange(0, m) / m
    return float(max((grid_hi - f).max(), (f - grid_lo).max()))


def _level_extremes(config: ExperimentConfig, n: int, reps: range) -> tuple:
    """Level max and min of y and of the errors, an (m, k) array each, and the
    (m, k) level means of y (None unless ``lse`` is configured).

    Every statistic is the one of the full vectors y = mu + eps and y - mu
    that ``simulate_dataset`` and ``residuals`` form. The consecutive
    replications ``reps`` are sampled in blocks, each one read of stream 0
    from its first replication's offset, and where the module docstring says
    so only the level extremes of the uniforms are transformed.
    """
    k, model = config.k, config.model
    mu = config.levels @ config.true_theta
    lse = "lse" in config.methods
    extremes_first = not lse and model.family in evt.MONOTONE_QUANTILE
    seed = evt.stream_seed(config.master_seed, n, 0)
    ext = np.empty((4, len(reps), k))
    y_mean = np.empty((len(reps), k)) if lse else None
    rows = max(1, SAMPLE_BLOCK_DRAWS // (k * n))
    for start in range(0, len(reps), rows):
        block = slice(start, start + rows)
        count = len(reps[block])
        u = evt.uniforms(seed, count * k * n, reps[start] * k * n).reshape(count, k, n)
        if extremes_first:
            eps_ext = evt.from_uniforms(model, np.stack([u.max(axis=2), u.min(axis=2)]))
        else:
            evt.from_uniforms(model, u)  # u now holds the error draws
            eps_ext = np.stack([u.max(axis=2), u.min(axis=2)])
            if lse:
                u += mu[:, None]  # y, formed in place
                y_mean[block] = u.mean(axis=2)
        del u  # free this block before the next one is drawn
        ext[:2, block] = mu + eps_ext
        ext[2:, block] = ext[:2, block] - mu
        finite = np.isfinite(ext[:2, block]).all(axis=(0, 2))
        if not finite.all():
            raise InvalidModelError(
                f"{_family_name(model)} drew a non-finite error at n={n}, "
                f"replication {reps[start + int(np.argmin(finite))]}: "
                "its draws do not fit in float64"
            )
    return ext, y_mean


def _run_block(config: ExperimentConfig, n: int, reps: range) -> dict:
    """Fit every method on each replication in ``reps`` at sample size n.

    The LP fits each replication's level max and min of y as a dataset of two
    observations per level: the level extremes, so the LP rows, are the full
    dataset's. The closed form and least squares fit all replications in one
    batch each. The error extremes feed only the bound counters. Each
    method's ``causes`` counts its failed replications by cause.
    """
    k, q, V = config.k, config.q, config.levels
    count = len(reps)
    out = {
        m: {
            "delta": np.full(count, np.nan),
            "theta": np.full((count, q), np.nan),
            "nonunique": np.zeros(count, dtype=bool),
            "valid": np.zeros(count, dtype=bool),
            "causes": Counter(),
        }
        for m in config.methods
    }
    (y_max, y_min, e_max, e_min), y_mean = _level_extremes(config, n, reps)
    if y_mean is not None:
        cell = out["lse"]
        cell["delta"][:], cell["theta"][:] = lse_batch(
            ReplicatedDesign(V, n), y_mean, y_max, y_min
        )
        cell["valid"][:] = True
    if "lp" in out:
        cell, reduced = out["lp"], ReplicatedDesign(V, 2)
        y_pairs = np.stack([y_max, y_min], axis=2).reshape(count, 2 * k)
        for idx in range(count):
            try:
                fit = minimax_fit_lp(Dataset(reduced, y_pairs[idx]))
            except SolverStatusError as exc:
                cell["causes"][exc.status] += 1
                continue
            cell["delta"][idx], cell["theta"][idx] = fit.delta_hat, fit.theta_hat
            cell["nonunique"][idx] = fit.diagnostics["nonunique_suspected"]
            cell["valid"][idx] = True
    if "closed_form" in out:
        cell = out["closed_form"]
        try:
            cell["delta"][:], cell["theta"][:] = closed_form_batch(V, y_max, y_min)
            cell["valid"][:] = True
        except SingularDesignError:
            # A singular level matrix fails every replication.
            cell["causes"]["singular_levels"] += count
    half_range = (e_max.max(axis=1) - e_min.min(axis=1)) / 2.0
    half_max_group_range = (e_max - e_min).max(axis=1) / 2.0
    deltas = [out[m]["delta"] for m in ("lp", "closed_form") if m in out]
    slack = BOUND_TOL * np.maximum(1.0, np.maximum(np.abs(y_max), np.abs(y_min)).max(axis=1))

    def violations(bound: np.ndarray) -> int:
        return sum(int((d > bound + slack).sum()) for d in deltas)

    return {
        "fits": out,
        "statement1_violations": violations(half_range),
        "remark3_violations": violations(half_max_group_range),
    }


def _detlaw_ks(config: ExperimentConfig, n: int, theta_scaled: dict) -> dict:
    """``{method: {"theta{i}_detlaw": ks}}``: KS distances of the scaled
    coefficients to a direct simulation of their k = q limit law.

    V d = zeta - zeta' for q x draws matrices of G variates from streams 1
    and 2, row i being draws i*draws onwards. It is drawn and solved in
    column blocks at fixed stream offsets; each block's sorted row i adds its
    count of draws <= s at every sample point s, and count / draws is the
    whole row's ECDF that ``ks_distance`` reads. Every block is drawn into
    the same two buffers: draw arrays freed between blocks would be handed
    back to the operating system and faulted in again.
    """
    att, q, draws = config.model.attraction, config.q, config.reference_draws
    seeds = [evt.stream_seed(config.master_seed, n, j) for j in (1, 2)]
    points = {method: np.sort(t, axis=0).T for method, t in theta_scaled.items()}
    counts = {method: np.zeros(p.shape, dtype=np.int64) for method, p in points.items()}
    # np.array_split's widths of at least two columns: a one-column solve
    # takes another LAPACK path than a wider one, and rounds differently.
    blocks = max(1, draws // max(2, SAMPLE_BLOCK_DRAWS // q))
    width, wider = divmod(draws, blocks)
    zeta_buf, other_buf = np.empty((q, width + 1)), np.empty(width + 1)
    col = 0
    for b in range(blocks):
        w = width + (b < wider)
        zeta, other = zeta_buf[:, :w], other_buf[:w]
        for i, row in enumerate(zeta):
            evt.sample_attraction(att, w, seeds[0], start=i * draws + col, out=row)
            row -= evt.sample_attraction(att, w, seeds[1], start=i * draws + col, out=other)
        d = np.linalg.solve(config.levels, zeta)
        d.sort(axis=1)
        for method, p in points.items():
            for i in range(q):
                counts[method][i] += np.searchsorted(d[i], p[i], side="right")
        col += w
    return {method: {f"theta{i}_detlaw": _ks_at_steps(c[i] / draws) for i in range(q)}
            for method, c in counts.items()}


def _family_name(model) -> str:
    return model.family + ("" if model.alpha is None else f" (alpha={model.alpha})")


def _priced_ks(priced: dict, samples: np.ndarray, law: LimitLaw) -> float:
    """``ks_distance(samples, law)``, kept in ``priced`` by law and sample
    bits: lp and closed_form mostly give equal samples on k = q designs."""
    key = (law, samples.tobytes())
    if key not in priced:
        priced[key] = ks_distance(samples, law)
    return priced[key]


def _aggregate(config: ExperimentConfig, n: int, method: str, blocks: list,
               constants: evt.NormingConstants, priced: dict) -> MethodSamples:
    """The (n, method) cell from its blocks' fits, without the
    ``theta{i}_detlaw`` distances, which ``run_experiment`` adds.

    Raises ExperimentFailureRateError when more than MAX_FAILURE_RATE of the
    replications failed, and InvalidModelError when a number of the cell
    overflows.
    """
    fits = [b["fits"][method] for b in blocks]
    delta_all = np.concatenate([f["delta"] for f in fits])
    theta_all = np.vstack([f["theta"] for f in fits])
    valid = np.concatenate([f["valid"] for f in fits])
    m_reps = config.replications
    failures = int(m_reps - valid.sum())
    if failures > MAX_FAILURE_RATE * m_reps:
        causes = dict(sorted(sum((f["causes"] for f in fits), Counter()).items()))
        named = ", ".join(f"{cause}: {count}" for cause, count in causes.items())
        raise ExperimentFailureRateError(
            f"{failures}/{m_reps} replications failed for method {method} at n={n} ({named})",
            failures=failures,
            total=m_reps,
            causes=causes,
        )
    a_n, b_n = constants.a, constants.b
    delta = delta_all[valid]
    theta = theta_all[valid]
    delta_scaled = 2.0 * b_n * (delta - a_n)
    theta_scaled = 2.0 * b_n * (theta - config.true_theta)
    abs_err = np.abs(theta - config.true_theta)
    quantiles = [list(np.quantile(abs_err[:, i], QUANTILE_GRID)) for i in range(config.q)]
    cov = (np.cov(theta_scaled, rowvar=False).reshape(config.q, config.q)
           if theta.shape[0] >= 2 else None)
    numbers = (delta_scaled, theta_scaled, quantiles, 0.0 if cov is None else cov)
    if not all(np.isfinite(a).all() for a in numbers):
        raise InvalidModelError(
            f"{_family_name(config.model)} at n={n}, method {method}: a scaled delta or "
            "theta, quantile or covariance is not finite, so the report cannot hold it")
    ks = {}
    if config.k == config.q and method != "lse":
        att = config.model.attraction
        ks["delta_qpower"] = _priced_ks(priced, delta_scaled, LimitLaw("qpower", att, q=config.q))
        if config.model.family == "uniform_symmetric":
            ks["delta_uniform_delta"] = _priced_ks(
                priced, n * (1.0 - delta), LimitLaw("uniform_delta", q=config.q)
            )
        if config.q == 1 and att.kind == "gumbel":
            ks["theta0_logistic"] = _priced_ks(priced, theta_scaled[:, 0], LimitLaw("logistic"))
    return MethodSamples(
        method=method,
        delta=delta_all,
        theta=theta_all,
        nonunique=np.concatenate([f["nonunique"] for f in fits]),
        valid=valid,
        failures=failures,
        delta_scaled=delta_scaled,
        theta_scaled=theta_scaled,
        ks=ks,
        theta_abs_quantiles=quantiles,
        theta_scaled_cov=cov,
    )


def run_experiment(config: ExperimentConfig) -> SimulationReport:
    """Run the full experiment ladder and aggregate the report.

    Per-replication fit failures are recorded and the affected replication is
    excluded; a failure rate above MAX_FAILURE_RATE raises.
    """
    V = config.levels
    statement1 = bool(np.all(V[:, 0] == 1.0))
    remark3 = bool(config.k < config.q and np.linalg.matrix_rank(V) == config.k)
    distributional = (
        config.k == config.q
        and any(m in ("lp", "closed_form") for m in config.methods)
        and np.linalg.matrix_rank(V) == config.q
    )
    per_n = []
    s1_violations = r3_violations = 0
    for n in config.n_values:
        constants = evt.norming_constants(config.model, n)
        blocks = _dispatch_blocks(config, n)
        priced = {}
        cells = {
            method: _aggregate(config, n, method, blocks, constants, priced)
            for method in config.methods
        }
        if distributional:
            scaled = {m: cells[m].theta_scaled for m in ("lp", "closed_form") if m in cells}
            for method, ks in _detlaw_ks(config, n, scaled).items():
                cells[method].ks.update(ks)
        s1_violations += sum(b["statement1_violations"] for b in blocks)
        r3_violations += sum(b["remark3_violations"] for b in blocks)
        per_n.append(PerNResult(n=n, a_n=constants.a, b_n=constants.b, methods=cells))
    return SimulationReport(
        config=config,
        per_n=per_n,
        rate_slopes=_slopes_from_cells(config, per_n),
        bound_checks={
            "statement1_applicable": statement1,
            "remark3_applicable": remark3,
            "statement1_violations": s1_violations if statement1 else 0,
            "remark3_violations": r3_violations if remark3 else 0,
        },
    )


def _dispatch_blocks(config: ExperimentConfig, n: int) -> list:
    """``_run_block`` on the replications, split among at most one worker
    process per CPU this process may run on: a larger pool would only fork
    more processes, since the report does not depend on ``jobs``. macOS and
    Windows lack ``os.sched_getaffinity``: there every CPU counts. The
    process pool is imported only when a run uses it."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    jobs = min(config.jobs, cpus)
    reps = range(config.replications)
    if jobs <= 1 or config.replications < 4 * jobs:
        return [_run_block(config, n, reps)]
    from concurrent.futures import ProcessPoolExecutor

    chunks = np.array_split(np.arange(config.replications), jobs)
    ranges = [range(int(c[0]), int(c[-1]) + 1) for c in chunks if c.size]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_block, [config] * len(ranges), [n] * len(ranges), ranges))


def _slopes_from_cells(config: ExperimentConfig, per_n: list) -> dict:
    """OLS slope of log median |theta_i - theta| against log n, per method;
    None where a median is 0 and its log undefined."""
    if len(per_n) < 2:
        return {}
    slopes = {}
    log_n = np.log([entry.n for entry in per_n])
    median_col = QUANTILE_GRID.index(0.5)
    for method in config.methods:
        per_coef = []
        for i in range(config.q):
            med = np.array(
                [entry.methods[method].theta_abs_quantiles[i][median_col] for entry in per_n]
            )
            if np.any(med <= 0.0):
                per_coef.append(None)
                continue
            slope = np.polyfit(log_n, np.log(med), 1)[0]
            per_coef.append(float(slope))
        slopes[method] = per_coef
    return slopes


def rate_slope(config: ExperimentConfig) -> dict:
    """Run the ladder and return per-method, per-coefficient log-log slopes."""
    if len(config.n_values) < 4:
        raise ExperimentError("rate estimation needs an n ladder with >= 4 values")
    if config.replications < 500:
        raise ExperimentError("rate estimation needs >= 500 replications per n")
    return run_experiment(config).rate_slopes


@dataclass(frozen=True)
class CovarianceComparison:
    sample_cov: np.ndarray
    target: np.ndarray
    entrywise_abs: np.ndarray
    frobenius_rel: float
    sigma_sq: float


def covariance_check(config: ExperimentConfig,
                     report: Optional[SimulationReport] = None,
                     method: str = "closed_form") -> CovarianceComparison:
    """Sample covariance of the scaled coefficient deviations against
    2 sigma_G^2 (V'V)^{-1}; refuses attraction laws without finite variance."""
    sigma_sq = evt.variance_of_attraction(config.model.attraction)
    if not np.isfinite(sigma_sq):
        raise InfiniteVarianceError(
            f"attraction law of {config.model.family} has no finite variance"
        )
    if method not in config.methods:
        raise ExperimentError(f"method {method!r} not present in config.methods")
    if report is None:
        report = run_experiment(config)
    cell = report.cell(config.n_values[-1], method)
    if cell.theta_scaled_cov is None:
        raise ExperimentError("covariance needs at least 2 successful replications")
    V = config.levels
    target = 2.0 * sigma_sq * np.linalg.inv(V.T @ V)
    diff = cell.theta_scaled_cov - target
    return CovarianceComparison(
        sample_cov=cell.theta_scaled_cov,
        target=target,
        entrywise_abs=np.abs(diff),
        frobenius_rel=float(np.linalg.norm(diff) / np.linalg.norm(target)),
        sigma_sq=float(sigma_sq),
    )


@dataclass(frozen=True)
class MethodDiscrepancy:
    max_delta_diff: float
    max_theta_diff: float
    compared: int
    theta_compared: int


def cross_validate_methods(config: ExperimentConfig,
                           report: Optional[SimulationReport] = None) -> MethodDiscrepancy:
    """Max per-replication LP vs closed-form disagreement on a k = q design.

    Theta is only compared on replications whose LP basis did not flag
    non-uniqueness; delta is compared on every jointly valid replication.
    """
    if config.k != config.q:
        raise ExperimentError("method cross-validation needs a k = q design")
    for needed in ("lp", "closed_form"):
        if needed not in config.methods:
            raise ExperimentError(f"config.methods must include {needed!r}")
    if report is None:
        report = run_experiment(config)
    max_delta = 0.0
    max_theta = 0.0
    compared = 0
    theta_compared = 0
    for entry in report.per_n:
        a = entry.methods["lp"]
        b = entry.methods["closed_form"]
        both = a.valid & b.valid
        compared += int(both.sum())
        max_delta = max(max_delta, float(np.abs(a.delta[both] - b.delta[both]).max()))
        unique = both & ~a.nonunique
        if unique.any():
            theta_compared += int(unique.sum())
            max_theta = max(
                max_theta,
                float(np.abs(a.theta[unique] - b.theta[unique]).max()),
            )
    return MethodDiscrepancy(
        max_delta_diff=max_delta,
        max_theta_diff=max_theta,
        compared=compared,
        theta_compared=theta_compared,
    )


def ecdf_table(samples, max_points: int = 4096) -> np.ndarray:
    """Two-column (x, F(x)) empirical CDF table, quantile-thinned to max_points."""
    s = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
    m = s.shape[0]
    if m == 0:
        raise EmptySampleError("cannot tabulate an empty sample")
    if m <= max_points:
        idx = np.arange(m)
    else:
        idx = np.unique(np.round(np.linspace(0, m - 1, max_points)).astype(int))
    return np.column_stack([s[idx], (idx + 1) / m])
