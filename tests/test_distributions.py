"""Chi-square distribution functions against independent oracles:
closed forms (df 1 and 2), Simpson integration of the density, Monte
Carlo for the noncentral CDF, and values recorded from an earlier
implementation (incomplete-gamma series and continued fraction, bisection
quantile, Poisson-mixture noncentral CDF)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qltest import chi2_cdf, chi2_quantile, noncentral_chi2_cdf
from qltest.distributions import chi2_pdf


def _simpson_cdf(x, df, panels=4000):
    """Simpson integration of chi2_pdf over [0, x] for df >= 2.

    Substituting x = u^2 removes the sqrt-type behaviour of the odd-df
    densities at the origin, so the integrand 2 u pdf(u^2) is smooth.
    """
    top = math.sqrt(x)
    grid = np.linspace(0.0, top, 2 * panels + 1)
    vals = np.array([2.0 * u * chi2_pdf(float(u * u), df) for u in grid])
    h = top / (2 * panels)
    return h / 3.0 * (
        vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum()
    )


def test_quantile_frozen_values():
    assert chi2_quantile(0.95, 3) == pytest.approx(7.814728, abs=1e-5)
    assert chi2_quantile(0.95, 1) == pytest.approx(3.841459, abs=1e-5)
    assert chi2_quantile(0.99, 2) == pytest.approx(9.210340, abs=1e-5)


# (p, df, quantile) recorded from the bisection-and-Newton implementation
_FROZEN_QUANTILES = [
    (0.95, 3, 7.8147279032511765),
    (0.95, 1, 3.841458820694129),
    (0.95, 4, 9.487729036781154),
    (0.05, 3, 0.3518463177492714),
    (0.5, 6, 5.348120627447118),
    (0.999, 1, 10.827566170662728),
    (0.001, 5, 0.2102126026292192),
]


@pytest.mark.parametrize("p,df,expected", _FROZEN_QUANTILES)
def test_quantile_matches_recorded_values(p, df, expected):
    assert chi2_quantile(p, df) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("p", [0.05, 0.5, 0.9, 0.95, 0.99, 0.999])
def test_quantile_df2_matches_closed_form(p):
    # df = 2: F(x) = 1 - exp(-x/2), so the quantile is -2 log(1 - p)
    assert chi2_quantile(p, 2) == pytest.approx(-2.0 * math.log1p(-p), rel=1e-14)


def test_cdf_df1_matches_error_function():
    # df = 1: F(x) = erf(sqrt(x/2))
    for x in (0.1, 0.5, 1.0, 3.0, 7.5):
        assert chi2_cdf(x, 1) == pytest.approx(math.erf(math.sqrt(x / 2.0)), abs=1e-12)


def test_cdf_df2_is_exponential():
    for x in (0.2, 1.0, 4.0, 10.0):
        assert chi2_cdf(x, 2) == pytest.approx(1.0 - math.exp(-x / 2.0), abs=1e-12)


@pytest.mark.parametrize("df", [3, 4, 5, 8])
@pytest.mark.parametrize("x", [0.5, 2.0, 7.8147, 15.0])
def test_cdf_matches_simpson(df, x):
    assert chi2_cdf(x, df) == pytest.approx(_simpson_cdf(x, df), abs=1e-10)


def test_cdf_edges():
    assert chi2_cdf(0.0, 3) == 0.0
    assert chi2_cdf(1e6, 3) == pytest.approx(1.0, abs=1e-12)
    assert chi2_cdf(math.inf, 3) == 1.0
    assert noncentral_chi2_cdf(math.inf, 3, 5.0) == 1.0
    # a NaN argument propagates; it is not read as a probability
    assert math.isnan(chi2_cdf(math.nan, 3))
    assert math.isnan(noncentral_chi2_cdf(7.8147, 3, math.nan))


def test_pdf_at_zero():
    assert chi2_pdf(0.0, 2) == 0.5
    assert math.isinf(chi2_pdf(0.0, 1))
    assert chi2_pdf(0.0, 3) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=0.001, max_value=0.999),
    df=st.integers(min_value=1, max_value=10),
)
def test_quantile_cdf_round_trip(p, df):
    assert chi2_cdf(chi2_quantile(p, df), df) == pytest.approx(p, abs=1e-9)


def test_input_validation():
    with pytest.raises(ValueError):
        chi2_cdf(-1.0, 3)
    with pytest.raises(ValueError):
        chi2_cdf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_quantile(0.0, 3)
    with pytest.raises(ValueError):
        chi2_quantile(1.0, 3)
    with pytest.raises(ValueError):
        chi2_pdf(-0.5, 2)
    with pytest.raises(ValueError):
        noncentral_chi2_cdf(-1.0, 3, 1.0)
    with pytest.raises(ValueError):
        noncentral_chi2_cdf(1.0, 3, -1.0)
    with pytest.raises(ValueError):
        noncentral_chi2_cdf(1.0, 3, 2e6)
    # scipy accepts a fractional df; these wrappers must not
    with pytest.raises(ValueError):
        chi2_cdf(1.0, 2.5)
    with pytest.raises(ValueError):
        chi2_quantile(0.95, 2.5)
    with pytest.raises(ValueError):
        noncentral_chi2_cdf(1.0, 2.5, 1.0)


def test_noncentral_reduces_to_central_at_zero():
    for x in (0.5, 3.0, 7.8147):
        assert noncentral_chi2_cdf(x, 3, 0.0) == chi2_cdf(x, 3)


def test_noncentral_monotone_in_noncentrality():
    values = [noncentral_chi2_cdf(7.8147, 3, lam) for lam in (0.0, 1.0, 5.0, 20.0, 37.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


# (x, df, lam, cdf) recorded from the Poisson-mixture implementation
_FROZEN_NONCENTRAL = [
    (7.8147, 3, 37.0, 0.00021049281102611007),
    (7.8147, 3, 5.0, 0.5594888868620319),
    (10.0, 3, 5.0, 0.7066486477773525),
    (1.0, 1, 0.5, 0.5712970103867432),
    (5.991465, 2, 10.0, 0.18457864688521805),
    (20.0, 5, 12.0, 0.6903127525630864),
    (60.0, 10, 40.0, 0.7817496552133477),
    (150.0, 3, 200.0, 0.02438019911198537),
]


@pytest.mark.parametrize("x,df,lam,expected", _FROZEN_NONCENTRAL)
def test_noncentral_matches_recorded_values(x, df, lam, expected):
    assert noncentral_chi2_cdf(x, df, lam) == pytest.approx(expected, abs=1e-12)


def test_noncentral_matches_monte_carlo_oracle():
    # moderate noncentrality where the CDF is well inside (0, 1)
    x, df, lam = 10.0, 3, 5.0
    rng = np.random.default_rng(424242)
    z = rng.standard_normal((200_000, df))
    z[:, 0] += math.sqrt(lam)
    s = np.sum(z * z, axis=1)
    p_hat = float(np.mean(s <= x))
    se = math.sqrt(p_hat * (1.0 - p_hat) / s.size)
    assert abs(noncentral_chi2_cdf(x, df, lam) - p_hat) <= 3.0 * se
