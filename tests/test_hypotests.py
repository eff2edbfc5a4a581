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
    make_model,
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

from oracles import reference_stepwise_beta


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


# parameters a statistic must refuse with ConfigError
_BAD = {
    "blocks": ParamVector([0.5], [0.5, 0.25]),
    "alpha outside": ParamVector([0.5, 9.0], [0.25]),
    "beta outside": ParamVector([0.5, 0.5], [9.0]),
}

# each public statistic as a call on (ctx, fitted, null, level), with the
# bad parameters it must refuse; a stepwise test reads one block of each
_CALLS = {
    "T": (lambda c, f, n, lv: t_statistic(c, f, n, lv), _BAD),
    "GQLRT": (lambda c, f, n, lv: gqlrt_statistic(c, f, n, lv), _BAD),
    "WALD": (lambda c, f, n, lv: wald_statistic(c, f, n, lv), _BAD),
    "RAO": (lambda c, f, n, lv: rao_statistic(c, f, n, lv), _BAD),
    "AKL": (lambda c, f, n, lv: phi_divergence_statistic(c, f, n, "AKL", lv), _BAD),
    "STEP_BETA": (lambda c, f, n, lv: stepwise_beta(c, f.beta, n.beta, lv),
                  ("blocks", "beta outside")),
    "STEP_ALPHA": (lambda c, f, n, lv: stepwise_alpha(c, f.alpha, n.alpha, f.beta, lv),
                   ("blocks", "alpha outside")),
}


@pytest.mark.parametrize("kind", list(_CALLS))
def test_every_statistic_checks_its_parameters_and_level(kind, ou_ctx_1000, theta0_ou,
                                                          theta_hat):
    call, bad = _CALLS[kind]
    assert call(ou_ctx_1000, theta_hat, theta0_ou, 0.05).kind == kind
    for name in bad:
        with pytest.raises(ConfigError):
            call(ou_ctx_1000, theta_hat, _BAD[name], 0.05)
        with pytest.raises(ConfigError):
            call(ou_ctx_1000, _BAD[name], theta0_ou, 0.05)
    for level in (0.0, 1.0, 1.5, math.nan):
        with pytest.raises(ConfigError, match="level"):
            call(ou_ctx_1000, theta_hat, theta0_ou, level)


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


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_non_finite_threshold_is_a_config_error(ou_ctx_1000, theta0_ou, theta_hat, threshold):
    # a NaN threshold would never reject; every public test refuses it
    calls = [
        lambda: t_statistic(ou_ctx_1000, theta_hat, theta0_ou, threshold=threshold),
        lambda: gqlrt_statistic(ou_ctx_1000, theta_hat, theta0_ou, threshold=threshold),
        lambda: wald_statistic(ou_ctx_1000, theta_hat, theta0_ou, threshold=threshold),
        lambda: rao_statistic(ou_ctx_1000, theta_hat, theta0_ou, threshold=threshold),
        lambda: phi_divergence_statistic(ou_ctx_1000, theta_hat, theta0_ou, "BS",
                                         threshold=threshold),
        lambda: stepwise_beta(ou_ctx_1000, theta0_ou.beta, theta0_ou.beta, threshold=threshold),
        lambda: stepwise_alpha(ou_ctx_1000, theta0_ou.alpha, theta0_ou.alpha, theta0_ou.beta,
                               threshold=threshold),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="threshold must be finite"):
            call()


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


@pytest.mark.parametrize("model_id", ["ou", "cir"])
@pytest.mark.parametrize("n", [100, 1000])
def test_stepwise_beta_equals_the_contrast_formula(model_id, n, request):
    # the statistic is taken from the drift-free quasi-likelihood terms; the
    # oracle writes the contrast's differences out from c alone
    model = make_model(model_id)
    theta0 = request.getfixturevalue(f"theta0_{model_id}")
    for seed in range(3):
        path = euler_maruyama(
            model, theta0, SimConfig(n=n, delta=n ** (-2.0 / 3.0), x0=1.0, seed=300 + seed))
        ctx = QLContext(model, path)
        beta_tilde = initial_beta(ctx).theta_hat.beta
        stat = stepwise_beta(ctx, beta_tilde, theta0.beta).statistic
        assert stat > 0.0
        assert stat == pytest.approx(
            reference_stepwise_beta(ctx, beta_tilde, theta0.beta), rel=1e-12, abs=0.0)
        assert stepwise_beta(ctx, theta0.beta, theta0.beta).statistic == 0.0


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


# the cases of df = 3 keep the ids they had before df was varied
@pytest.mark.parametrize("h, level, df, match", [
    pytest.param(np.ones(3), 0.0, 3, "level", id="h0-0.0-level"),
    # was a bare ValueError from chi2_quantile
    pytest.param(np.ones(3), 1.5, 3, "level", id="h1-1.5-level"),
    pytest.param(np.ones(3), math.nan, 3, "level", id="h2-nan-level"),
    # was numpy's matmul error
    pytest.param(np.ones(2), 0.05, 3, "length 3", id="h3-0.05-length 3"),
    pytest.param(1.0, 0.05, 3, "length 3", id="1.0-0.05-length 3"),
    pytest.param(np.ones((3, 1)), 0.05, 3, "length 3", id="h5-0.05-length 3"),
    # was NaN
    pytest.param(np.array([1.0, math.nan, 1.0]), 0.05, 3, "finite", id="h6-0.05-finite"),
    pytest.param(np.array([1.0, math.inf, 1.0]), 0.05, 3, "finite", id="h7-0.05-finite"),
    # was a power of 0.32, on 2 df
    pytest.param(np.ones(3), 0.05, 2, "dimension 3", id="df2"),
    pytest.param(np.ones(3), 0.05, 4, "dimension 3", id="df4"),
    # each was a bare ValueError from distributions._check_df
    pytest.param(np.ones(3), 0.05, 0, "at least 1", id="df0"),
    pytest.param(np.ones(3), 0.05, 2.5, "integer", id="df2.5"),
    pytest.param(np.ones(3), 0.05, 3.0, "integer", id="df3.0"),
])
def test_power_approximation_checks_its_inputs(h, level, df, match):
    with pytest.raises(ConfigError, match=match):
        power_approximation(h, _ou_info(), level, df)


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
