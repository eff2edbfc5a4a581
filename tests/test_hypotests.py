"""Test statistics: distance properties, report invariants, stepwise
pair, phi-divergences and the noncentral power approximation."""

import math

import numpy as np
import pytest

from qltest import (
    ConfigError,
    ParamVector,
    QLContext,
    SimConfig,
    chi2_cdf,
    chi2_quantile,
    empirical_l2_distance,
    euler_maruyama,
    gqlrt_statistic,
    initial_beta,
    phi_divergence_statistic,
    power_approximation,
    rao_statistic,
    stepwise_alpha,
    stepwise_beta,
    t_statistic,
    wald_statistic,
)
from qltest.hypotests import report_csv_header, report_csv_row
from qltest.quasilik import InfoMatrix


@pytest.fixture(scope="module")
def theta_hat(ou_fit_1000):
    return ou_fit_1000.theta_hat


def test_distance_zero_symmetric_nonnegative(ou_ctx_1000, theta0_ou, theta_hat):
    assert empirical_l2_distance(ou_ctx_1000, theta0_ou, theta0_ou) == 0.0
    d12 = empirical_l2_distance(ou_ctx_1000, theta_hat, theta0_ou)
    d21 = empirical_l2_distance(ou_ctx_1000, theta0_ou, theta_hat)
    assert d12 == pytest.approx(d21, rel=1e-12)
    assert d12 >= 0.0


def test_distance_checks_box(ou_ctx_1000, theta0_ou):
    with pytest.raises(ConfigError):
        empirical_l2_distance(ou_ctx_1000, theta0_ou, ParamVector([0.5, 6.0], [0.25]))


def test_t_statistic_report(ou_ctx_1000, theta0_ou, theta_hat):
    report = t_statistic(ou_ctx_1000, theta_hat, theta0_ou)
    assert report.kind == "T"
    assert report.df == 3
    assert report.statistic == pytest.approx(
        1000 * empirical_l2_distance(ou_ctx_1000, theta_hat, theta0_ou)
    )
    assert report.threshold == pytest.approx(chi2_quantile(0.95, 3), abs=1e-10)
    assert report.p_value == pytest.approx(1.0 - chi2_cdf(report.statistic, 3))
    assert report.reject == (report.statistic > report.threshold)
    assert report.saturated_terms == 0


def test_statistics_vanish_at_null(ou_ctx_1000, theta0_ou):
    for fn in (t_statistic, gqlrt_statistic, wald_statistic):
        assert fn(ou_ctx_1000, theta0_ou, theta0_ou).statistic == pytest.approx(0.0, abs=1e-12)
    for kind in ("AKL", "BS"):
        report = phi_divergence_statistic(
            ou_ctx_1000, theta0_ou, theta0_ou, kind, threshold=1.0
        )
        assert report.statistic == pytest.approx(0.0, abs=1e-12)


def test_gqlrt_nonnegative_at_minimizer(ou_ctx_1000, theta0_ou, theta_hat):
    assert gqlrt_statistic(ou_ctx_1000, theta_hat, theta0_ou).statistic >= -1e-8


def test_negative_chi2_statistic_has_p_value_one(ou_model, theta0_ou):
    # at a point with a lower objective than theta0's, GQLRT is negative:
    # below a nonnegative law, so p = 1 and no rejection
    sim = SimConfig(n=100, delta=100 ** (-2 / 3), x0=1.0, seed=3, refine=30)
    ctx = QLContext(ou_model, euler_maruyama(ou_model, theta0_ou, sim))
    report = gqlrt_statistic(ctx, ParamVector([2.0, 1.5], [0.4]), theta0_ou)
    assert report.statistic < 0.0
    assert report.p_value == 1.0
    assert report.reject is False


def test_wald_and_rao_nonnegative(ou_ctx_1000, theta0_ou, theta_hat):
    assert wald_statistic(ou_ctx_1000, theta_hat, theta0_ou).statistic >= 0.0
    assert rao_statistic(ou_ctx_1000, theta_hat, theta0_ou).statistic >= 0.0


def test_threshold_override(ou_ctx_1000, theta0_ou, theta_hat):
    report = t_statistic(ou_ctx_1000, theta_hat, theta0_ou, threshold=1e9)
    assert report.threshold == 1e9
    assert not report.reject


def test_bs_requires_threshold(ou_ctx_1000, theta0_ou, theta_hat):
    with pytest.raises(ConfigError):
        phi_divergence_statistic(ou_ctx_1000, theta_hat, theta0_ou, "BS")
    report = phi_divergence_statistic(ou_ctx_1000, theta_hat, theta0_ou, "BS", threshold=0.5)
    assert math.isnan(report.p_value)
    assert isinstance(report.reject, bool)


def test_unknown_phi_kind(ou_ctx_1000, theta0_ou, theta_hat):
    with pytest.raises(ConfigError):
        phi_divergence_statistic(ou_ctx_1000, theta_hat, theta0_ou, "hellinger")


def test_akl_second_order_expansion(ou_ctx_1000, theta0_ou, theta_hat):
    # 2 phi(e^d) = d^2 + O(d^3) termwise, so for small per-term log-ratios
    # the AKL statistic tracks the summed squared differences
    akl = phi_divergence_statistic(ou_ctx_1000, theta_hat, theta0_ou, "AKL").statistic
    t = t_statistic(ou_ctx_1000, theta_hat, theta0_ou).statistic
    assert akl >= 0.0
    assert akl == pytest.approx(t, abs=max(0.5, 0.5 * t))


def test_stepwise_pair(ou_ctx_1000, theta0_ou):
    pre = initial_beta(ou_ctx_1000)
    beta_tilde = pre.theta_hat.beta
    rb = stepwise_beta(ou_ctx_1000, beta_tilde, theta0_ou.beta)
    assert rb.kind == "STEP_BETA"
    assert rb.df == 1
    assert rb.statistic >= 0.0
    ra = stepwise_alpha(ou_ctx_1000, theta0_ou.alpha, theta0_ou.alpha, beta_tilde)
    assert ra.kind == "STEP_ALPHA"
    assert ra.df == 2
    assert ra.statistic == pytest.approx(0.0, abs=1e-12)


def test_stepwise_beta_zero_at_null(ou_ctx_1000, theta0_ou):
    report = stepwise_beta(ou_ctx_1000, theta0_ou.beta, theta0_ou.beta)
    assert report.statistic == pytest.approx(0.0, abs=1e-12)


def _ou_info():
    return InfoMatrix(
        block_aa=np.diag([1.0, 4.0]),
        block_ab=np.zeros((2, 1)),
        block_bb=np.array([[32.0]]),
    )


def test_power_approximation_at_null_equals_level():
    zero = InfoMatrix(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 1)))
    assert power_approximation(np.zeros(3), zero, 0.05, 3) == pytest.approx(0.05, abs=1e-9)


def test_power_approximation_monotone_and_saturating():
    info = _ou_info()
    p = [power_approximation(np.full(3, h), info, 0.05, 3) for h in (0.0, 0.2, 0.5, 1.0)]
    assert p[0] == pytest.approx(0.05, abs=1e-9)
    assert p[0] < p[1] < p[2] < p[3]
    assert p[3] > 0.99  # noncentrality 37


def test_report_csv_round_trip(ou_ctx_1000, theta0_ou, theta_hat):
    header = report_csv_header()
    assert header.split(",") == [
        "kind", "n", "delta", "statistic", "df", "threshold", "p_value", "reject",
    ]
    report = phi_divergence_statistic(ou_ctx_1000, theta_hat, theta0_ou, "BS", threshold=0.5)
    row = report_csv_row(report, 1000, 0.01).split(",")
    assert len(row) == 8
    assert row[0] == "BS"
    assert row[6] == "nan"
    assert row[7] in ("true", "false")
    assert float(row[3]) == report.statistic
