"""Error-distribution catalog and extreme-value limit machinery.

Every catalog family is symmetric about zero and comes with closed-form CDF
and quantile, its max-domain-of-attraction type, and the norming constants
(a_n, b_n) that make b_n (Z_n - a_n) converge to that type. The limit laws
needed downstream (the attraction law itself, the law of a sum or difference
of two independent copies, its q-th power, and the two special closed forms)
are evaluated here, numerically convolving the attraction law where no
closed form exists.

Sampling is inverse-CDF on top of Philox, a counter-based generator, so a
(seed, model, count) triple reproduces bit-identical output. Derived streams
for Monte Carlo replications come from ``stream_seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InvalidModelError

FAMILIES = ("uniform_symmetric", "laplace", "bounded_power", "pareto_symmetric", "gaussian")

# Families whose tail exponent parameter is required.
_ALPHA_FAMILIES = ("bounded_power", "pareto_symmetric")

DIVERGES = "diverges"
BOUNDED = "bounded"
CONVERGES_TO_ZERO = "converges_to_zero"

# Smallest uniform variate fed to the inverse CDF; keeps unbounded quantiles
# finite at the (probability ~2^-64) left endpoint.
_U_FLOOR = 2.0**-64

# Families whose float64 ``quantile`` is non-decreasing, so it commutes with
# max and min: the level extremes of their draws are the transformed level
# extremes of the uniforms. tests/test_evt.py checks this on consecutive
# doubles at the edges and the branch points and on dense grids. Not
# gaussian: scipy's ndtri falls by up to 4 ulps between neighbouring doubles.
MONOTONE_QUANTILE = ("uniform_symmetric", "laplace", "bounded_power", "pareto_symmetric")


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
        elif self.alpha is None or not (self.alpha > 0):
            raise InvalidModelError(f"{self.kind} type needs a tail exponent alpha > 0")


@dataclass(frozen=True)
class ErrorModel:
    """A symmetric error distribution from the catalog."""

    family: str
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidModelError(f"unknown family {self.family!r}")
        if self.family in _ALPHA_FAMILIES:
            if self.alpha is None or not (self.alpha > 0):
                raise InvalidModelError(f"{self.family} needs alpha > 0")
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
    return ndtr(x)


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
    return ndtri(p)


def stream_seed(master_seed: int, n: int, replication: int) -> int:
    """Derived 64-bit stream id: hash of (master seed, n, replication index)."""
    ss = np.random.SeedSequence(entropy=(int(master_seed), int(n), int(replication)))
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


# The constants of NumPy's documented SeedSequence hash (numpy.random
# bit_generator): ``_seed_sequence_state`` runs its mixing on uint32 arrays.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_sequence_state(entropy: list, n_words: int) -> list:
    """``SeedSequence(e).generate_state(n_words, uint32)`` for many entropies e.

    ``entropy`` holds the uint32 words SeedSequence assembles from e, each
    word an array over the entropies; all share one word count. Returns
    n_words arrays. Integer arrays wrap silently, as the C code's uint32 do.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append(value ^ (value >> np.uint32(16)))
    return state


def _int_words(value: int) -> list:
    """The uint32 words SeedSequence reads a nonnegative int as, low first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _uint64(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    return low.astype(np.uint64) | (high.astype(np.uint64) << np.uint64(32))


def _philox_keys(seeds: np.ndarray) -> np.ndarray:
    """The (count, 2) Philox keys ``SeedSequence(s).generate_state(2, uint64)``
    of uint64 seeds s.

    SeedSequence reads s as one word below 2^32 and as two from there on; a
    pool of four words pads with hashed zeros, so both read as (low, high).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = [(seeds & np.uint64(_MASK32)).astype(np.uint32),
             (seeds >> np.uint64(32)).astype(np.uint32)]
    state = _seed_sequence_state(words, 4)
    return np.stack([_uint64(state[0], state[1]), _uint64(state[2], state[3])], axis=1)


def stream_keys(master_seed: int, n: int, replications) -> np.ndarray:
    """Philox key of each replication's stream, one row per index r.

    Row i is the key ``sample`` draws under for the seed
    ``stream_seed(master_seed, n, replications[i])``, bit for bit; both
    SeedSequence stages run vectorized over the indices, which must be
    below 2^32.
    """
    reps = np.asarray(replications, dtype=np.int64).reshape(-1)
    if reps.size and not (0 <= reps.min() and reps.max() <= _MASK32):
        raise InvalidModelError("replication indices must lie in [0, 2^32)")
    words = [np.full(reps.shape, w, dtype=np.uint32)
             for w in _int_words(int(master_seed)) + _int_words(int(n))]
    state = _seed_sequence_state(words + [reps.astype(np.uint32)], 2)
    return _philox_keys(_uint64(state[0], state[1]))


def uniform_rows(keys: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` Philox uniforms of each key's stream, one row per key.

    One generator serves every row: its state is reset to the fresh state
    of each key, so row i equals ``random(width)`` of a new generator under
    ``keys[i]``, the draws ``sample`` floors and transforms.
    """
    out = np.empty((keys.shape[0], int(width)))
    bitgen = np.random.Philox(key=0)
    fresh = bitgen.state
    gen = np.random.Generator(bitgen)
    for key, row in zip(keys, out):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        gen.random(out=row)
    return out


def sample(model: ErrorModel, count: int, seed: int) -> np.ndarray:
    """i.i.d. draws by inverse-CDF transform of Philox uniforms."""
    count = int(count)
    if count < 0:
        raise InvalidModelError(f"count must be >= 0, got {count}")
    return from_uniforms(model, _rng(seed).random(count))


def from_uniforms(model: ErrorModel, u: np.ndarray) -> np.ndarray:
    """The family's draws from Philox uniforms u, which are floored in place."""
    np.maximum(u, _U_FLOOR, out=u)
    return quantile(model, u)


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
    a = float(ndtri(1.0 - 1.0 / n))
    b = float(n * (np.exp(-a**2 / 2.0) / np.sqrt(2 * np.pi)))
    return NormingConstants(a=a, b=b, n=n)


def check_bn_divergence(model: ErrorModel) -> str:
    """How the scale b_n behaves as n grows, per attraction branch."""
    att = model.attraction
    if att.kind == "frechet":
        return CONVERGES_TO_ZERO
    if att.kind == "weibull":
        return DIVERGES
    return BOUNDED if model.family == "laplace" else DIVERGES


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


def pdf_of_attraction(att: AttractionType, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if att.kind == "frechet":
        xp = np.where(x > 0.0, x, np.inf)
        return np.where(
            x > 0.0, att.alpha * xp ** (-att.alpha - 1.0) * np.exp(-xp ** (-att.alpha)), 0.0
        )
    if att.kind == "weibull":
        xn = np.where(x < 0.0, -x, np.inf)
        return np.where(
            x < 0.0, att.alpha * xn ** (att.alpha - 1.0) * np.exp(-(xn**att.alpha)), 0.0
        )
    return np.exp(-x - np.exp(-x))


def quantile_of_attraction(att: AttractionType, p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if att.kind == "frechet":
        return (-np.log(p)) ** (-1.0 / att.alpha)
    if att.kind == "weibull":
        return -((-np.log(p)) ** (1.0 / att.alpha))
    return -np.log(-np.log(p))


def sample_attraction(att: AttractionType, count: int, seed: int) -> np.ndarray:
    """i.i.d. draws from the attraction law itself (independent G variates)."""
    u = _rng(seed).random(int(count))
    np.maximum(u, _U_FLOOR, out=u)
    return quantile_of_attraction(att, u)


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


# Node count for the convolution quadrature (well above the 4096 floor the
# 1e-6 accuracy target was budgeted for).
CONV_NODES = 32769
_CONV_MASS_CUT = 1e-8


@lru_cache(maxsize=32)
def _conv_nodes(att: AttractionType):
    """Quadrature nodes y_i and nonnegative weights w_i with sum w = 1.

    Types with a bounded density on a moderate central range (gumbel and
    weibull with alpha >= 1) use a uniform grid with trapezoid weights; the
    heavy-tailed or endpoint-singular cases use equal-mass (quantile-spaced)
    nodes instead, trading a little interior accuracy for tail robustness.
    """
    delta = _CONV_MASS_CUT / 2.0
    uniform_grid = att.kind == "gumbel" or (att.kind == "weibull" and att.alpha >= 1.0)
    if uniform_grid:
        lo = float(quantile_of_attraction(att, np.array(delta)))
        hi = float(quantile_of_attraction(att, np.array(1.0 - delta)))
        y = np.linspace(lo, hi, CONV_NODES)
        w = np.full(CONV_NODES, (hi - lo) / (CONV_NODES - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        w *= pdf_of_attraction(att, y)
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
    """P(Z + Z' <= x) or, with difference=True, P(Z - Z' <= x) for iid G."""
    y, w = _conv_nodes(att)
    sign = 1.0 if difference else -1.0
    out = np.empty_like(x, dtype=np.float64)
    chunk = max(1, 4_000_000 // y.shape[0])
    for start in range(0, x.shape[0], chunk):
        xs = x[start:start + chunk]
        out[start:start + chunk] = cdf_of_attraction(
            att, xs[:, None] + sign * y[None, :]
        ) @ w
    return out


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
        return np.where(x < 0.0, 0.5 * np.exp(np.minimum(x, 0.0)),
                        1.0 - 0.5 * np.exp(-np.maximum(x, 0.0)))
    return _conv_cdf(att, x, difference=True)


def limit_cdf(law: LimitLaw, x) -> np.ndarray:
    """Evaluate the law's CDF at x (scalar or vector); monotone by construction."""
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
        out = 1.0 / (1.0 + np.exp(-arr))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out
