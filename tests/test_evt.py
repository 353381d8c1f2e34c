"""Error catalog, norming constants, attraction laws, and limit CDFs."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import minimaxreg as mr
from minimaxreg import evt
from minimaxreg.errors import InvalidModelError
from minimaxreg.evt import (
    AttractionType,
    cdf_of_attraction,
    quantile_of_attraction,
)

ALL_MODELS = [
    mr.ErrorModel("uniform_symmetric"),
    mr.ErrorModel("laplace"),
    mr.ErrorModel("bounded_power", 1.5),
    mr.ErrorModel("pareto_symmetric", 2.5),
    mr.ErrorModel("gaussian"),
]


class TestSampling:
    def test_uniform_support(self):
        s = mr.sample(mr.ErrorModel("uniform_symmetric"), 5000, 1)
        assert s.min() >= -1.0 and s.max() <= 1.0

    def test_pareto_support_gap(self):
        s = mr.sample(mr.ErrorModel("pareto_symmetric", 2.0), 5000, 2)
        assert np.all(np.abs(s) >= 1.0)

    def test_determinism(self):
        m = mr.ErrorModel("laplace")
        assert np.array_equal(mr.sample(m, 1000, 42), mr.sample(m, 1000, 42))
        assert not np.array_equal(mr.sample(m, 1000, 42), mr.sample(m, 1000, 43))

    def test_laplace_mean_clt_bound(self):
        s = mr.sample(mr.ErrorModel("laplace"), 100_000, 7)
        assert abs(s.mean()) < 4.0 * math.sqrt(2.0) / math.sqrt(100_000)

    def test_zero_count(self):
        assert mr.sample(mr.ErrorModel("gaussian"), 0, 1).shape == (0,)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidModelError):
            mr.ErrorModel("bounded_power", -1.0)
        with pytest.raises(InvalidModelError):
            mr.ErrorModel("pareto_symmetric")
        with pytest.raises(InvalidModelError):
            mr.ErrorModel("laplace", 2.0)
        with pytest.raises(InvalidModelError):
            mr.ErrorModel("cauchy")
        with pytest.raises(InvalidModelError):
            mr.sample(mr.ErrorModel("laplace"), -1, 0)

    def test_stream_seed_derivation(self):
        a = mr.stream_seed(123, 100, 0)
        assert a == mr.stream_seed(123, 100, 0)
        assert len({mr.stream_seed(123, n, r) for n in (10, 20) for r in range(50)}) == 100


def _numpy_key(seed):
    return np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)


class TestStreamKeys:
    def test_keys_equal_the_seed_sequence_chain(self):
        masters = (0, 1, 314, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**70 + 5)
        ns = (2, 30, 2000, 2**32, 2**33 + 7)
        reps = np.concatenate([np.arange(200), [2**31, 2**32 - 1],
                               np.random.default_rng(9).integers(0, 2**32, 48)])
        checked = 0
        for master in masters:
            for n in ns:
                keys = evt.stream_keys(master, n, reps)
                want = [_numpy_key(mr.stream_seed(master, n, r)) for r in reps]
                assert np.array_equal(keys, want), (master, n)
                checked += len(reps)
        assert checked >= 10_000

    def test_second_stage_reads_one_or_two_words(self):
        seeds = np.array([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1], dtype=np.uint64)
        assert np.array_equal(evt._philox_keys(seeds), [_numpy_key(s) for s in seeds])

    def test_uniform_rows_are_each_streams_first_draws(self):
        keys = evt.stream_keys(5, 40, range(3, 9))
        rows = evt.uniform_rows(keys, 77)
        for row, r in zip(rows, range(3, 9)):
            assert np.array_equal(row, evt._rng(mr.stream_seed(5, 40, r)).random(77))
        assert evt.uniform_rows(keys[:0], 77).shape == (0, 77)

    def test_sample_is_the_transformed_row(self):
        model = mr.ErrorModel("laplace")
        row = evt.uniform_rows(evt.stream_keys(8, 30, [4]), 60)[0]
        assert np.array_equal(evt.from_uniforms(model, row),
                              mr.sample(model, 60, mr.stream_seed(8, 30, 4)))

    @pytest.mark.parametrize("reps", ([-1], [2**32]))
    def test_replication_index_out_of_range(self, reps):
        with pytest.raises(InvalidModelError, match="replication indices"):
            evt.stream_keys(1, 10, reps)


# Steps of consecutive doubles checked on each side of a gate point.
GATE_STEPS = 200_000


def _gate_grid() -> np.ndarray:
    """Sorted uniforms in [_U_FLOOR, 1 - 2^-53], the values Philox and the floor
    can feed the quantile: consecutive doubles around the floor, the branch
    point 0.5, the largest uniform and e^-2, 1 - e^-2, plus dense grids."""
    centers = (evt._U_FLOOR, 0.5, 1.0 - 2.0**-53, math.exp(-2.0), 1.0 - math.exp(-2.0))
    steps = np.arange(-GATE_STEPS, GATE_STEPS + 1)
    consecutive = [(np.float64(c).view(np.int64) + steps).view(np.float64) for c in centers]
    rng = np.random.default_rng(2015)
    dense = [rng.random(1_000_000), 2.0 ** -rng.uniform(1.0, 64.0, 100_000),
             1.0 - 2.0 ** -rng.uniform(1.0, 53.0, 100_000)]
    p = np.unique(np.concatenate(consecutive + dense))
    return p[(p >= evt._U_FLOOR) & (p <= 1.0 - 2.0**-53)]


def _passes_monotonicity_gate(model) -> bool:
    x = evt.quantile(model, _gate_grid())
    return bool(np.all(x[1:] >= x[:-1]))


class TestMonotonicityGate:
    @pytest.mark.parametrize("model", [
        mr.ErrorModel("uniform_symmetric"),
        mr.ErrorModel("laplace"),
        *(mr.ErrorModel("bounded_power", a) for a in (0.3, 1.0, 1.5, 2.5, 7.0)),
        *(mr.ErrorModel("pareto_symmetric", a) for a in (0.5, 1.0, 2.5, 7.0)),
    ], ids=str)
    def test_extremes_first_families_pass(self, model):
        assert model.family in evt.MONOTONE_QUANTILE
        assert _passes_monotonicity_gate(model)

    def test_every_other_family_fails(self):
        others = [f for f in evt.FAMILIES if f not in evt.MONOTONE_QUANTILE]
        assert others == ["gaussian"]
        assert not _passes_monotonicity_gate(mr.ErrorModel("gaussian"))


class TestNormingConstants:
    def test_uniform_example(self):
        nc = mr.norming_constants(mr.ErrorModel("uniform_symmetric"), 10)
        assert (nc.a, nc.b) == (1.0, 5.0)

    def test_laplace_example(self):
        nc = mr.norming_constants(mr.ErrorModel("laplace"), 2)
        assert (nc.a, nc.b) == (0.0, 1.0)
        nc10 = mr.norming_constants(mr.ErrorModel("laplace"), 10)
        assert nc10.a == pytest.approx(math.log(5.0))

    def test_bounded_power_alpha_one_reduces_to_uniform(self):
        bp = mr.ErrorModel("bounded_power", 1.0)
        un = mr.ErrorModel("uniform_symmetric")
        for n in (2, 10, 1000):
            assert mr.norming_constants(bp, n).a == mr.norming_constants(un, n).a
            assert mr.norming_constants(bp, n).b == pytest.approx(mr.norming_constants(un, n).b)

    def test_gaussian_von_mises_recipe(self):
        from scipy.stats import norm
        nc = mr.norming_constants(mr.ErrorModel("gaussian"), 500)
        assert nc.a == pytest.approx(norm.ppf(1 - 1 / 500))
        assert nc.b == pytest.approx(500 * norm.pdf(nc.a))

    def test_requires_n_at_least_two(self):
        with pytest.raises(InvalidModelError):
            mr.norming_constants(mr.ErrorModel("laplace"), 1)


class TestGaussianWithoutScipyStats:
    """The gaussian paths use scipy.special and must equal scipy.stats.norm bit for bit."""

    def test_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, minimaxreg; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout.strip() == "False"

    def test_cdf_and_quantile_bit_equal_to_norm(self):
        from scipy.stats import norm
        gauss = mr.ErrorModel("gaussian")
        rng = np.random.Generator(np.random.Philox(91))
        x = np.concatenate([rng.normal(size=200_000) * 4.0, np.linspace(-40.0, 40.0, 8001),
                            [0.0, -0.0, np.inf, -np.inf]])
        assert np.array_equal(mr.cdf(gauss, x), norm.cdf(x))
        p = np.concatenate([rng.random(200_000), np.linspace(0.0, 1.0, 8001),
                            2.0 ** -np.arange(1, 80), [0.5]])
        assert np.array_equal(mr.quantile(gauss, p), norm.ppf(p))

    def test_norming_constants_bit_equal_to_norm(self):
        from scipy.stats import norm
        gauss = mr.ErrorModel("gaussian")
        ns = np.unique(np.round(np.logspace(np.log10(2), 7, 400)).astype(int))
        for n in ns:
            nc = mr.norming_constants(gauss, int(n))
            a = float(norm.ppf(1.0 - 1.0 / n))
            assert nc.a == a
            assert nc.b == float(n * norm.pdf(a))


class TestRoundTrip:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.family)
    def test_cdf_quantile_round_trip(self, model):
        p = np.linspace(0.001, 0.999, 1997)
        err = np.abs(mr.cdf(model, mr.quantile(model, p)) - p).max()
        assert err < 1e-10


class TestDivergence:
    def test_classification(self):
        assert mr.check_bn_divergence(mr.ErrorModel("uniform_symmetric")) == "diverges"
        assert mr.check_bn_divergence(mr.ErrorModel("bounded_power", 0.5)) == "diverges"
        assert mr.check_bn_divergence(mr.ErrorModel("laplace")) == "bounded"
        assert mr.check_bn_divergence(mr.ErrorModel("gaussian")) == "diverges"
        assert mr.check_bn_divergence(mr.ErrorModel("pareto_symmetric", 2.0)) == "converges_to_zero"


class TestVariance:
    def test_weibull_one_is_exponential(self):
        assert mr.variance_of_attraction(AttractionType("weibull", 1.0)) == pytest.approx(1.0)
        z = mr.sample_attraction(AttractionType("weibull", 1.0), 1_000_000, 99)
        assert z.var() == pytest.approx(1.0, abs=0.02)

    def test_gumbel(self):
        assert mr.variance_of_attraction(AttractionType("gumbel")) == pytest.approx(math.pi**2 / 6)
        z = mr.sample_attraction(AttractionType("gumbel"), 1_000_000, 98)
        assert z.var() == pytest.approx(math.pi**2 / 6, abs=0.03)

    def test_frechet_infinite_below_two(self):
        assert math.isinf(mr.variance_of_attraction(AttractionType("frechet", 1.5)))
        assert math.isinf(mr.variance_of_attraction(AttractionType("frechet", 2.0)))

    def test_frechet_finite_above_two(self):
        val = mr.variance_of_attraction(AttractionType("frechet", 3.0))
        expected = math.gamma(1 - 2 / 3) - math.gamma(1 - 1 / 3) ** 2
        assert val == pytest.approx(expected)
        z = mr.sample_attraction(AttractionType("frechet", 3.0), 1_000_000, 97)
        assert z.var() == pytest.approx(val, rel=0.1)


def _conv_quad_oracle(att, x):
    """Adaptive-quadrature reference for the sum law, in hazard coordinates."""
    def integrand(m):
        p = math.exp(-m)
        t = float(quantile_of_attraction(att, np.array(p)))
        return float(cdf_of_attraction(att, np.array(x - t))) * math.exp(-m)
    return sum(
        quad(integrand, a, b, limit=200, epsabs=1e-13, epsrel=1e-13)[0]
        for a, b in [(0.0, 1.0), (1.0, 5.0), (5.0, 40.0)]
    )


class TestLimitCdf:
    def test_uniform_delta_values(self):
        law = mr.LimitLaw("uniform_delta", q=2)
        assert mr.limit_cdf(law, 1.0) == pytest.approx(1 - 4 * math.exp(-2), abs=1e-12)
        assert mr.limit_cdf(law, 2.0) == pytest.approx(1 - 9 * math.exp(-4), abs=1e-12)
        assert mr.limit_cdf(law, 0.0) == 0.0
        assert mr.limit_cdf(law, -1.0) == 0.0

    def test_logistic_midpoint(self):
        assert mr.limit_cdf(mr.LimitLaw("logistic"), 0.0) == 0.5

    def test_qpower_with_q_one_equals_sum(self):
        att = AttractionType("gumbel")
        x = np.linspace(-3, 8, 57)
        a = mr.limit_cdf(mr.LimitLaw("qpower", att, q=1), x)
        b = mr.limit_cdf(mr.LimitLaw("sum", att), x)
        assert np.array_equal(a, b)

    def test_weibull_one_sum_closed_form_vs_quadrature(self):
        att = AttractionType("weibull", 1.0)
        for x in (-6.0, -2.0, -0.5, -0.05):
            closed = mr.limit_cdf(mr.LimitLaw("sum", att), x)
            assert closed == pytest.approx((1 - x) * math.exp(x), abs=1e-14)
            assert closed == pytest.approx(_conv_quad_oracle(att, x), abs=1e-10)

    def test_gumbel_sum_numerical_accuracy(self):
        att = AttractionType("gumbel")
        for x in (-2.0, 0.0, 0.7, 2.5, 7.0):
            numeric = mr.limit_cdf(mr.LimitLaw("sum", att), x)
            assert numeric == pytest.approx(_conv_quad_oracle(att, x), abs=1e-6)

    def test_weibull_two_sum_numerical_accuracy(self):
        att = AttractionType("weibull", 2.0)
        for x in (-3.0, -1.2, -0.4):
            numeric = mr.limit_cdf(mr.LimitLaw("sum", att), x)
            assert numeric == pytest.approx(_conv_quad_oracle(att, x), abs=1e-6)

    def test_heavy_tail_sum_numerical_accuracy(self):
        # Quantile-node path: frechet and endpoint-singular weibull densities.
        for att, xs in [
            (AttractionType("frechet", 3.0), (1.5, 3.0, 8.0)),
            (AttractionType("weibull", 0.7), (-4.0, -1.0, -0.2)),
        ]:
            for x in xs:
                numeric = mr.limit_cdf(mr.LimitLaw("sum", att), x)
                assert numeric == pytest.approx(_conv_quad_oracle(att, x), abs=1e-5)

    def test_gumbel_sum_matches_monte_carlo(self):
        rng = np.random.Generator(np.random.Philox(12345))
        mc = np.sort(
            -np.log(-np.log(rng.random(1_000_000)))
            - np.log(-np.log(rng.random(1_000_000)))
        )
        step = 200
        idx = np.arange(0, mc.shape[0], step)
        f = mr.limit_cdf(mr.LimitLaw("sum", AttractionType("gumbel")), mc[idx])
        sup = max(
            np.abs((idx + 1) / mc.shape[0] - f).max(),
            np.abs(idx / mc.shape[0] - f).max(),
        )
        # Thinning can hide at most step/M of the sup.
        assert sup + step / mc.shape[0] < 0.003

    def test_gumbel_difference_is_logistic(self):
        x = np.linspace(-6, 6, 101)
        d = mr.limit_cdf(mr.LimitLaw("midrange_diff", AttractionType("gumbel")), x)
        assert np.abs(d - 1 / (1 + np.exp(-x))).max() < 1e-14

    def test_weibull_one_difference_is_laplace(self):
        x = np.linspace(-8, 8, 101)
        d = mr.limit_cdf(mr.LimitLaw("midrange_diff", AttractionType("weibull", 1.0)), x)
        lap = np.where(x < 0, 0.5 * np.exp(x), 1 - 0.5 * np.exp(-x))
        assert np.abs(d - lap).max() < 1e-14

    @pytest.mark.parametrize("law", [
        mr.LimitLaw("max", AttractionType("gumbel")),
        mr.LimitLaw("max", AttractionType("weibull", 2.0)),
        mr.LimitLaw("max", AttractionType("frechet", 1.5)),
        mr.LimitLaw("sum", AttractionType("gumbel")),
        mr.LimitLaw("qpower", AttractionType("weibull", 1.0), q=3),
        mr.LimitLaw("midrange_diff", AttractionType("frechet", 2.5)),
        mr.LimitLaw("uniform_delta", q=2),
        mr.LimitLaw("logistic"),
    ], ids=lambda law: f"{law.kind}-{law.attraction.kind if law.attraction else 'none'}")
    def test_monotone_with_proper_limits(self, law):
        lo, hi = -2.0, 2.0
        while mr.limit_cdf(law, lo) > 1e-3 and lo > -1e6:
            lo *= 2.0
        while mr.limit_cdf(law, hi) < 1 - 1e-3 and hi < 1e6:
            hi *= 2.0
        f = mr.limit_cdf(law, np.linspace(lo, hi, 801))
        assert np.all(np.diff(f) >= -1e-12)
        assert f[0] < 1e-3 and f[-1] > 1 - 1e-3
        assert np.all((f >= 0) & (f <= 1))

    def test_nonfinite_point_rejected(self):
        with pytest.raises(ValueError):
            mr.limit_cdf(mr.LimitLaw("logistic"), np.nan)

    def test_law_validation(self):
        with pytest.raises(InvalidModelError):
            mr.LimitLaw("sum")  # needs an attraction type
        with pytest.raises(InvalidModelError):
            mr.LimitLaw("uniform_delta", q=0)


@pytest.mark.slow
class TestEmpiricalMaxConvergence:
    """Normalized sample maxima land on the claimed attraction law."""

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.family)
    def test_normalized_max_ks(self, model):
        n, reps = 10_000, 10_000
        nc = mr.norming_constants(model, n)
        att = model.attraction
        maxima = np.empty(reps)
        chunk = 500
        for start in range(0, reps, chunk):
            block = np.vstack([
                mr.sample(model, n, mr.stream_seed(4096, n, r))
                for r in range(start, start + chunk)
            ])
            maxima[start:start + chunk] = block.max(axis=1)
        ks = mr.ks_distance(nc.b * (maxima - nc.a), mr.LimitLaw("max", att))
        assert ks <= 0.05, f"{model.family}: KS {ks:.4f}"
