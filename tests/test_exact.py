"""The LP's answers against the exact oracle of ``exact.py``."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minimaxreg as mr
from exact import exact_delta, exact_residuals
from minimaxreg.errors import DualityGapError, SolverStatusError
from test_cli import BAD4, NEG4

EPS = Fraction(np.finfo(float).eps)


def dataset(table):
    return mr.Dataset(mr.Design(table[:, :-1]), table[:, -1])


def test_oracle_on_hand_designs():
    # Three points on x = 0, 1, 2: lambda = (1, -2, 1).
    assert exact_delta([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]], [0.0, 1.0, 4.0]) == Fraction(1, 2)
    assert exact_residuals([[1.0, 0.5]], [1.0], [0.1, 0.3]) == [
        1 - Fraction(0.1) - Fraction(0.5) * Fraction(0.3)]


def test_bad4_and_neg4_optima():
    bad4, neg4 = exact_delta(BAD4[:, :-1], BAD4[:, -1]), exact_delta(NEG4[:, :-1], NEG4[:, -1])
    assert f"{float(bad4):.2g}" == "7e+182"
    assert f"{float(neg4):.2g}" == "5.2e-118"
    # Scaling a column moves theta alone; scaling y by 2^-997 scales Delta.
    assert neg4 == bad4 * Fraction(1, 2 ** 997)


@pytest.mark.parametrize("table", [BAD4, NEG4], ids=["bad4", "neg4"])
def test_certificate_refuses_a_delta_below_the_optimum(table):
    # The dual side alone holds: the LP's delta_hat is the value of a
    # feasible dual point, far below the exact optimum, and theta's
    # residuals refute it.
    ds = dataset(table)
    fit = mr.minimax_fit_lp(ds)
    assert fit.delta_hat < exact_delta(table[:, :-1], table[:, -1])
    with pytest.raises(DualityGapError) as info:
        mr.dual_certificate(ds, fit.lp_solution)
    assert info.value.gap > 0.0


@st.composite
def mixed_scale_data(draw):
    """Up to 30 rows of q gaussian columns, each scaled by its own 2^k for k
    in [-300, 300]; y adds a signal at 2^s, each column's share of it of
    the same size, to t(2) noise at 2^e."""
    q = draw(st.integers(1, 4))
    n = draw(st.integers(q + 1, 30))
    scales = draw(st.lists(st.integers(-300, 300), min_size=q, max_size=q))
    signal, noise = draw(st.integers(-300, 300)), draw(st.integers(-300, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = np.ldexp(rng.normal(size=(n, q)), scales)
    theta = np.ldexp(rng.normal(size=q), [signal - k for k in scales])
    return X, X @ theta + np.ldexp(rng.standard_t(2, size=n), noise)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mixed_scale_data())
def test_certified_fits_hold_in_exact_arithmetic(data):
    # Every fit the certificate accepts has exact residuals within delta_hat
    # plus the rounding bound of ``model.rows_beyond_delta``, 1024 eps times
    # scale_j = |y_j| + |x_j|.|theta|, plus a margin for the rounding of the
    # float residual the certificate reads and of its bound:
    # eps (|delta_hat| + (q + 2) scale_j) covers the (q + 1) eps / 2 scale_j
    # of a dot product of q + 1 terms and one rounding of the bound's sum.
    X, y = data
    ds = mr.Dataset(mr.Design(X), y)
    try:
        fit = mr.minimax_fit_lp(ds)
        mr.dual_certificate(ds, fit.lp_solution)
    except (SolverStatusError, DualityGapError):
        return
    delta, q = Fraction(fit.delta_hat), X.shape[1]
    th = [abs(Fraction(t)) for t in fit.theta_hat]
    for row, yj, r in zip(X, y, exact_residuals(X, y, fit.theta_hat)):
        scale = abs(Fraction(yj)) + sum(abs(Fraction(x)) * t for x, t in zip(row, th))
        assert abs(r) <= delta + EPS * (1024 * scale + abs(delta) + (q + 2) * scale)
