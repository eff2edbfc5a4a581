"""Estimators: the box-constrained quasi-likelihood minimizer, the
diffusion pre-estimator and the two-stage adaptive variant."""

import dataclasses

import numpy as np
import pytest

from qltest import (
    EstimationError,
    FitOptions,
    ParamVector,
    QLContext,
    SamplePath,
    SimConfig,
    adaptive_estimate,
    euler_maruyama,
    initial_beta,
    make_cir,
    mqle,
    ql_total,
)


def test_mqle_recovers_parameters(ou_ctx_1000, ou_fit_1000, theta0_ou, ou_model):
    theta_hat = ou_fit_1000.theta_hat
    assert ou_model.box.contains(theta_hat.full)
    # diffusion parameter is n^{1/2}-consistent: tight
    assert theta_hat.beta[0] == pytest.approx(0.25, rel=0.15)
    # drift parameters converge at the slower (n delta)^{1/2} rate: loose
    assert theta_hat.alpha[1] == pytest.approx(0.5, abs=0.25)
    assert 0.05 <= theta_hat.alpha[0] <= 2.5


def test_mqle_is_a_minimizer(ou_ctx_1000, ou_fit_1000, theta0_ou):
    assert ou_fit_1000.objective <= ql_total(ou_ctx_1000, theta0_ou) + 1e-9
    assert ou_fit_1000.objective == pytest.approx(
        ql_total(ou_ctx_1000, ou_fit_1000.theta_hat), abs=1e-8
    )


def test_mqle_deterministic(ou_ctx_1000, ou_fit_1000):
    again = mqle(ou_ctx_1000)
    np.testing.assert_array_equal(again.theta_hat.full, ou_fit_1000.theta_hat.full)
    assert again.objective == ou_fit_1000.objective


def test_reduced_start_budget_agrees_with_full_fit(ou_ctx_1000, ou_fit_1000):
    reduced = mqle(ou_ctx_1000, FitOptions(n_starts=2, polish_top=1))
    assert abs(reduced.objective - ou_fit_1000.objective) <= 1e-3 * (
        1.0 + abs(ou_fit_1000.objective)
    )
    assert reduced.theta_hat.beta[0] == pytest.approx(
        ou_fit_1000.theta_hat.beta[0], abs=0.02
    )


def test_mqle_rejects_too_short_path(ou_model):
    path = SamplePath(delta=0.01, values=[0.5, 0.51, 0.49, 0.5])
    with pytest.raises(EstimationError):
        mqle(QLContext(ou_model, path))


def test_initial_beta(ou_ctx_1000, ou_model):
    pre = initial_beta(ou_ctx_1000)
    assert pre.theta_hat.beta[0] == pytest.approx(0.25, rel=0.10)
    np.testing.assert_allclose(pre.theta_hat.alpha, ou_model.box.center()[:2])


def test_adaptive_estimate(ou_ctx_1000, ou_fit_1000):
    fit = adaptive_estimate(ou_ctx_1000)
    assert fit.adaptive
    assert fit.theta_hat.beta[0] == pytest.approx(0.25, rel=0.15)
    assert np.isfinite(fit.objective)
    # the two-stage estimate lands near the joint minimizer
    assert fit.theta_hat.beta[0] == pytest.approx(
        ou_fit_1000.theta_hat.beta[0], abs=0.03
    )


def test_mqle_on_cir(theta0_cir):
    model = make_cir()
    path = euler_maruyama(
        model, theta0_cir, SimConfig(n=1000, delta=0.01, x0=1.0, seed=777, refine=10)
    )
    fit = mqle(QLContext(model, path))
    assert fit.theta_hat.beta[0] == pytest.approx(0.125, rel=0.20)


def test_objective_orders_parameters(ou_ctx_1000, theta0_ou):
    # data simulated at theta0 strongly prefers theta0 over a shifted theta
    shifted = ParamVector(theta0_ou.alpha + 0.5, theta0_ou.beta + 0.1)
    assert ql_total(ou_ctx_1000, theta0_ou) < ql_total(ou_ctx_1000, shifted)


def test_bug_in_model_callback_propagates(ou_ctx_1000, ou_model):
    # a bug in a callback is not a failed start: the error reaches the caller
    def broken_drift(theta, x):
        raise ValueError("bug in drift")

    model = dataclasses.replace(ou_model, drift=broken_drift)
    ctx = QLContext(model, ou_ctx_1000.path)
    with pytest.raises(ValueError, match="bug in drift"):
        mqle(ctx)
