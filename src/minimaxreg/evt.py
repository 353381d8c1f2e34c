"""Error-distribution catalog and extreme-value limit machinery.

Every catalog family is symmetric about zero and comes with closed-form CDF
and quantile, its max-domain-of-attraction type, and the norming constants
(a_n, b_n) that make b_n (Z_n - a_n) converge to that type. The limit laws
needed downstream (the attraction law itself, the law of a sum or difference
of two independent copies, its q-th power, and the two special closed forms)
are evaluated here. The sum law has a closed form for the gumbel type and
for weibull with alpha = 1, the difference law for the same two; the other
types convolve the attraction law numerically, with a fixed quadrature whose
values lie within about 1.5e-5 of adaptive quadrature (``CONV_NODES``).

Sampling is inverse-CDF on top of Philox, a counter-based generator, so a
(seed, model, count) triple reproduces bit-identical output, and
``uniforms`` reads any stretch of a stream from its offset, into a new array
or one the caller reuses. The Monte Carlo engine's streams are seeded by
``stream_seed``.

Only the gaussian family and the gumbel sum law evaluate scipy.special
(``ndtr``, ``ndtri``, ``k1e``); ``_special`` imports it on their first
evaluation, so a fit or a uniform run never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import InvalidModelError

FAMILIES = ("uniform_symmetric", "laplace", "bounded_power", "pareto_symmetric", "gaussian")

# Families whose tail exponent parameter is required.
_ALPHA_FAMILIES = ("bounded_power", "pareto_symmetric")

# Smallest uniform variate fed to the inverse CDF; keeps unbounded quantiles
# finite at the (probability ~2^-64) left endpoint.
_U_FLOOR = 2.0**-64

# Families whose float64 ``quantile`` is non-decreasing, so it commutes with
# max and min: the level extremes of their draws are the transformed level
# extremes of the uniforms. tests/test_evt.py checks this on consecutive
# doubles at the edges and the branch points and on dense grids. Not
# gaussian: scipy's ndtri falls by up to 4 ulps between neighbouring doubles.
MONOTONE_QUANTILE = ("uniform_symmetric", "laplace", "bounded_power", "pareto_symmetric")


@lru_cache(maxsize=1)
def _special():
    """scipy.special, imported once on first use: the import alone took
    0.25 s and 25 MiB on a 2-vCPU host, and ``quantile`` calls this once
    per transform chunk."""
    import scipy.special

    return scipy.special


@dataclass(frozen=True)
class AttractionType:
    """One of the three extreme-value types: frechet/weibull with a tail
    exponent, or gumbel."""

    kind: str
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("frechet", "weibull", "gumbel"):
            raise InvalidModelError(f"unknown attraction kind {self.kind!r}")
        if self.kind == "gumbel":
            if self.alpha is not None:
                raise InvalidModelError("gumbel type has no tail exponent")
        elif self.alpha is None or not (0 < self.alpha < math.inf):
            raise InvalidModelError(f"{self.kind} type needs a finite tail exponent alpha > 0")


@dataclass(frozen=True)
class ErrorModel:
    """A symmetric error distribution from the catalog."""

    family: str
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidModelError(f"unknown family {self.family!r}")
        if self.family in _ALPHA_FAMILIES:
            if self.alpha is None or not (0 < self.alpha < math.inf):
                raise InvalidModelError(f"{self.family} needs a finite alpha > 0")
        elif self.alpha is not None:
            raise InvalidModelError(f"{self.family} takes no alpha parameter")

    @property
    def attraction(self) -> AttractionType:
        if self.family == "uniform_symmetric":
            return AttractionType("weibull", 1.0)
        if self.family == "bounded_power":
            return AttractionType("weibull", self.alpha)
        if self.family == "pareto_symmetric":
            return AttractionType("frechet", self.alpha)
        return AttractionType("gumbel")


@dataclass(frozen=True)
class NormingConstants:
    """Location a_n and scale b_n > 0 for the sample maximum at size n."""

    a: float
    b: float
    n: int


def cdf(model: ErrorModel, x) -> np.ndarray:
    """Distribution function of the error family, vectorized."""
    x = np.asarray(x, dtype=np.float64)
    fam, al = model.family, model.alpha
    if fam == "uniform_symmetric":
        return np.clip((x + 1.0) / 2.0, 0.0, 1.0)
    if fam == "laplace":
        return np.where(x < 0.0, 0.5 * np.exp(np.minimum(x, 0.0)),
                        1.0 - 0.5 * np.exp(-np.maximum(x, 0.0)))
    if fam == "bounded_power":
        xc = np.clip(x, -1.0, 1.0)
        lower = 0.5 * (1.0 + xc) ** al
        upper = 1.0 - 0.5 * (1.0 - xc) ** al
        return np.where(xc < 0.0, lower, upper)
    if fam == "pareto_symmetric":
        out = np.full_like(x, 0.5)
        out = np.where(x <= -1.0, 0.5 * np.abs(np.minimum(x, -1.0)) ** (-al), out)
        out = np.where(x >= 1.0, 1.0 - 0.5 * np.maximum(x, 1.0) ** (-al), out)
        return out
    return _special().ndtr(x)


def quantile(model: ErrorModel, p) -> np.ndarray:
    """Inverse CDF of the error family, vectorized over p in [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    fam, al = model.family, model.alpha
    if fam == "uniform_symmetric":
        return 2.0 * p - 1.0
    if fam == "laplace":
        lower = np.log(np.maximum(2.0 * p, np.finfo(float).tiny))
        upper = -np.log(np.maximum(2.0 * (1.0 - p), np.finfo(float).tiny))
        return np.where(p < 0.5, lower, upper)
    if fam == "bounded_power":
        lower = (2.0 * p) ** (1.0 / al) - 1.0
        upper = 1.0 - (2.0 * (1.0 - p)) ** (1.0 / al)
        return np.where(p < 0.5, lower, upper)
    if fam == "pareto_symmetric":
        lower = -np.maximum(2.0 * p, np.finfo(float).tiny) ** (-1.0 / al)
        upper = np.maximum(2.0 * (1.0 - p), np.finfo(float).tiny) ** (-1.0 / al)
        return np.where(p <= 0.5, lower, upper)
    return _special().ndtri(p)


def stream_seed(master_seed: int, n: int, stream: int) -> int:
    """Derived 64-bit seed of a stream: hash of (master seed, n, stream index).

    At each n the engine reads every replication from stream 0 and its two
    direct-simulation references from streams 1 and 2."""
    ss = np.random.SeedSequence(entropy=(int(master_seed), int(n), int(stream)))
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def uniforms(seed: int, count: int, start: int = 0,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Philox uniforms ``start`` onwards of the seed's stream, ``count`` of
    them, so a long stream can be read in blocks; written into ``out``, a
    C-contiguous array of ``count`` doubles, when given. Philox makes four
    doubles per counter step: the read skips whole steps, then the rest of
    one."""
    rng = _rng(seed)
    if start:
        rng.bit_generator.advance(int(start) // 4)
        rng.random(int(start) % 4)
    return rng.random(int(count), out=out)


def sample(model: ErrorModel, count: int, seed: int) -> np.ndarray:
    """i.i.d. draws by inverse-CDF transform of Philox uniforms."""
    count = int(count)
    if count < 0:
        raise InvalidModelError(f"count must be >= 0, got {count}")
    return from_uniforms(model, uniforms(seed, count))


# Uniforms ``from_uniforms`` transforms at once. Its temporaries stay at
# 128 KiB: draw-sized ones, freed every sampling block, would be handed back
# to the operating system and faulted in again for the next block.
_TRANSFORM_CHUNK = 1 << 14


def from_uniforms(model: ErrorModel, u: np.ndarray) -> np.ndarray:
    """The family's draws from Philox uniforms u, floored and transformed in
    place, so the result is u itself."""
    if not u.flags.c_contiguous:
        raise ValueError("from_uniforms transforms a C-contiguous array in place")
    flat = u.reshape(-1)
    for start in range(0, flat.shape[0], _TRANSFORM_CHUNK):
        part = flat[start:start + _TRANSFORM_CHUNK]
        np.maximum(part, _U_FLOOR, out=part)
        part[...] = quantile(model, part)
    return u


def norming_constants(model: ErrorModel, n: int) -> NormingConstants:
    """Family-specific exact norming constants for the maximum of n draws."""
    n = int(n)
    if n < 2:
        raise InvalidModelError(f"norming constants need n >= 2, got n={n}")
    fam, al = model.family, model.alpha
    if fam == "uniform_symmetric":
        return NormingConstants(a=1.0, b=n / 2.0, n=n)
    if fam == "laplace":
        return NormingConstants(a=math.log(n / 2.0), b=1.0, n=n)
    if fam == "bounded_power":
        # gamma_n solves 1 - F(gamma) = 1/n, i.e. (1 - gamma) = (2/n)^(1/alpha).
        return NormingConstants(a=1.0, b=(n / 2.0) ** (1.0 / al), n=n)
    if fam == "pareto_symmetric":
        # Location zero convention for the frechet branch; b_n = 1/gamma_n.
        return NormingConstants(a=0.0, b=(2.0 / n) ** (1.0 / al), n=n)
    a = float(_special().ndtri(1.0 - 1.0 / n))
    b = float(n * (np.exp(-a**2 / 2.0) / np.sqrt(2 * np.pi)))
    return NormingConstants(a=a, b=b, n=n)


# ---------------------------------------------------------------------------
# Attraction laws and their derived limit distributions
# ---------------------------------------------------------------------------


def cdf_of_attraction(att: AttractionType, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if att.kind == "frechet":
        xp = np.maximum(x, 0.0)
        with np.errstate(divide="ignore"):
            val = np.exp(-xp ** (-att.alpha))
        return np.where(x > 0.0, val, 0.0)
    if att.kind == "weibull":
        xn = np.minimum(x, 0.0)
        return np.where(x > 0.0, 1.0, np.exp(-((-xn) ** att.alpha)))
    return np.exp(-np.exp(-x))


def quantile_of_attraction(att: AttractionType, p) -> np.ndarray:
    return _quantile_of_attraction_in_place(att, np.array(p, dtype=np.float64))


def _quantile_of_attraction_in_place(att: AttractionType, u: np.ndarray) -> np.ndarray:
    """The attraction law's quantile at u, computed in the array u."""
    np.log(u, out=u)
    np.negative(u, out=u)
    if att.kind == "gumbel":
        np.log(u, out=u)
        np.negative(u, out=u)
    elif att.kind == "frechet":
        u **= -1.0 / att.alpha
    else:
        u **= 1.0 / att.alpha
        np.negative(u, out=u)
    return u


def sample_attraction(att: AttractionType, count: int, seed: int, start: int = 0,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """i.i.d. draws from the attraction law itself (independent G variates):
    ``quantile_of_attraction`` of the floored ``uniforms(seed, count, start,
    out)``, transformed in place."""
    u = uniforms(seed, count, start, out)
    np.maximum(u, _U_FLOOR, out=u)
    return _quantile_of_attraction_in_place(att, u)


def variance_of_attraction(att: AttractionType) -> float:
    """Var of a G-distributed variate; math.inf when it does not exist."""
    if att.kind == "weibull":
        a = att.alpha
        return math.gamma(1.0 + 2.0 / a) - math.gamma(1.0 + 1.0 / a) ** 2
    if att.kind == "gumbel":
        return math.pi**2 / 6.0
    a = att.alpha
    if a <= 2.0:
        return math.inf
    return math.gamma(1.0 - 2.0 / a) - math.gamma(1.0 - 1.0 / a) ** 2


# Node count for the convolution quadrature. Against adaptive quadrature its
# values miss by up to 1.5e-5 for weibull alpha = 0.5 and frechet alpha = 0.5
# and 2.5, in the far tails where the equal-mass nodes thin out, and by 4e-7
# for weibull alpha = 1.5: a fixed rule does not resolve the kink of the
# integrand at p = G(x).
CONV_NODES = 32769
_CONV_MASS_CUT = 1e-8
# Bytes of the largest temporary one quadrature chunk forms.
_CONV_CHUNK_BYTES = 1 << 21


@lru_cache(maxsize=32)
def _conv_nodes(att: AttractionType):
    """Quadrature nodes y_i and nonnegative weights w_i with sum w = 1.

    Weibull types with alpha >= 1 have a bounded density on a moderate
    central range and use a uniform grid with trapezoid weights; the
    heavy-tailed or endpoint-singular cases use equal-mass (quantile-spaced)
    nodes instead, trading a little interior accuracy for tail robustness.
    """
    delta = _CONV_MASS_CUT / 2.0
    if att.kind == "weibull" and att.alpha >= 1.0:
        lo = float(quantile_of_attraction(att, np.array(delta)))
        hi = float(quantile_of_attraction(att, np.array(1.0 - delta)))
        y = np.linspace(lo, hi, CONV_NODES)
        w = np.full(CONV_NODES, (hi - lo) / (CONV_NODES - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        # The weibull density; every node lies below 0.
        xn = -y
        w *= att.alpha * xn ** (att.alpha - 1.0) * np.exp(-(xn ** att.alpha))
    else:
        p = np.linspace(delta, 1.0 - delta, CONV_NODES)
        y = quantile_of_attraction(att, p)
        w = np.empty(CONV_NODES)
        w[1:-1] = (p[2:] - p[:-2]) / 2.0
        w[0] = (p[1] - p[0]) / 2.0
        w[-1] = (p[-1] - p[-2]) / 2.0
    w /= w.sum()
    return y, w


def _conv_cdf(att: AttractionType, x: np.ndarray, difference: bool) -> np.ndarray:
    """P(Z + Z' <= x) or, with difference=True, P(Z - Z' <= x) for iid G.

    Each value is one fixed-order sum over the nodes, so it depends on its
    own point only, and it does not decrease along x where no term does.
    """
    y, w = _conv_nodes(att)
    shift = y if difference else -y
    out = np.empty_like(x, dtype=np.float64)
    chunk = max(1, _CONV_CHUNK_BYTES // (8 * y.shape[0]))
    for start in range(0, x.shape[0], chunk):
        xs = x[start:start + chunk]
        terms = cdf_of_attraction(att, xs[:, None] + shift)
        terms *= w
        out[start:start + chunk] = terms.sum(axis=1)
    # Where every term is about 1 the sum can round a few ulps past it.
    return np.minimum(out, 1.0, out=out)


# From this x on the gumbel sum law is read from the series of 1 - z K_1(z)
# at z = 0; its first omitted term is below 1e-16 there.
_GUMBEL_SUM_TAIL = 12.0


def _gumbel_sum_cdf(x: np.ndarray) -> np.ndarray:
    """P(Z + Z' <= x) for iid standard gumbel Z, Z'.

    e^-Z ~ Exp(1), so the law is P(E E' >= e^-x) = z K_1(z) with
    z = 2 e^(-x/2) (Gradshteyn & Ryzhik 3.471.9). x is clamped below so that
    z stays finite. In the upper tail z K_1(z) rounds non-monotonically and
    1 - S is used instead, S the series of 1 - z K_1(z) at 0 in which
    ln(z/2) = -x/2 exactly.
    """
    xb = np.clip(x, -1400.0, _GUMBEL_SUM_TAIL)
    z = 2.0 * np.exp(-xb / 2.0)
    body = z * _special().k1e(z) * np.exp(-z)
    xt = np.maximum(x, _GUMBEL_SUM_TAIL)
    e = np.exp(-xt)
    c = 2.0 * np.euler_gamma
    tail = 1.0 - (e * (xt + 1.0 - c) + 0.5 * e * e * (xt + 2.5 - c))
    return np.where(x < _GUMBEL_SUM_TAIL, body, tail)


@dataclass(frozen=True)
class LimitLaw:
    """A target limiting distribution.

    kind:
      max           -- the attraction law G itself
      sum           -- law of Z + Z' (two independent G variates)
      qpower        -- (sum law)^q, the k = q limit of the scaled deviation
      midrange_diff -- law of Z - Z', the limit of twice the scaled midrange
      uniform_delta -- 1 - (1+x)^q exp(-q x) for x > 0, the complement form
                       of qpower for the uniform family
      logistic      -- 1 / (1 + exp(-x))
    """

    kind: str
    attraction: Optional[AttractionType] = None
    q: int = 1

    def __post_init__(self):
        if self.kind not in ("max", "sum", "qpower", "midrange_diff",
                             "uniform_delta", "logistic"):
            raise InvalidModelError(f"unknown limit law kind {self.kind!r}")
        if self.kind in ("max", "sum", "qpower", "midrange_diff") and self.attraction is None:
            raise InvalidModelError(f"{self.kind} law needs an attraction type")
        if self.q < 1:
            raise InvalidModelError(f"q must be >= 1, got {self.q}")


def _sum_cdf(att: AttractionType, x: np.ndarray) -> np.ndarray:
    if att.kind == "gumbel":
        return _gumbel_sum_cdf(x)
    if att.kind == "weibull" and att.alpha == 1.0:
        # -(Z + Z') is a two-stage exponential sum: (1 - x) e^x on x <= 0.
        xn = np.minimum(x, 0.0)
        val = np.exp(np.log1p(-xn) + xn)
        return np.where(x >= 0.0, 1.0, val)
    return _conv_cdf(att, x, difference=False)


def _diff_cdf(att: AttractionType, x: np.ndarray) -> np.ndarray:
    if att.kind == "gumbel":
        return 1.0 / (1.0 + np.exp(-x))
    if att.kind == "weibull" and att.alpha == 1.0:
        # Difference of two exponentials: standard Laplace.
        return cdf(ErrorModel("laplace"), x)
    return _conv_cdf(att, x, difference=True)


def limit_cdf(law: LimitLaw, x) -> np.ndarray:
    """Evaluate the law's CDF at x (scalar or vector), within [0, 1].

    Each value depends on its own point only. Values are non-decreasing in
    x, except that the gumbel sum law and its powers can round below their
    predecessor between points a few ulps apart, by about 1e-15 at most.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValueError("limit_cdf needs finite evaluation points")
    if law.kind == "max":
        out = cdf_of_attraction(law.attraction, arr)
    elif law.kind == "sum":
        out = _sum_cdf(law.attraction, arr)
    elif law.kind == "qpower":
        out = _sum_cdf(law.attraction, arr) ** law.q
    elif law.kind == "midrange_diff":
        out = _diff_cdf(law.attraction, arr)
    elif law.kind == "uniform_delta":
        xp = np.maximum(arr, 0.0)
        val = 1.0 - np.exp(law.q * (np.log1p(xp) - xp))
        out = np.where(arr > 0.0, val, 0.0)
    else:
        out = _diff_cdf(AttractionType("gumbel"), arr)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out
