"""Estimators: the box-constrained quasi-likelihood minimizer, the
diffusion pre-estimator and the two-stage adaptive variant."""

import dataclasses

import numpy as np
import pytest

from qltest import (
    ConfigError,
    DomainError,
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
from qltest import estimate
from qltest.estimate import mqle_search


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


@pytest.mark.parametrize("field, value, match", [
    ("n_starts", 0, "at least 1"),  # was a bare ValueError from unpacking
    ("n_starts", 2.5, "integer"),  # was a TypeError
    ("n_starts", "8", "integer"),
    ("polish_top", 0, "at least 1"),  # was read as 1
    ("polish_top", -1, "at least 1"),
    ("polish_top", 1.0, "integer"),
])
def test_fit_options_refuse_a_bad_count(field, value, match):
    with pytest.raises(ConfigError, match=f"{field} must be .*{match}"):
        FitOptions(**{field: value})


def test_fit_options_accept_numpy_integers(ou_ctx_1000):
    opts = FitOptions(n_starts=np.int64(2), polish_top=np.int32(1))
    fit = mqle(ou_ctx_1000, opts)
    cheap = mqle(ou_ctx_1000, FitOptions(n_starts=2, polish_top=1))
    np.testing.assert_array_equal(fit.theta_hat.full, cheap.theta_hat.full)
    assert dataclasses.replace(fit, theta_hat=None) == dataclasses.replace(cheap, theta_hat=None)


def test_mqle_rejects_too_short_path(ou_model):
    path = SamplePath(delta=0.01, values=[0.5, 0.51, 0.49, 0.5])
    with pytest.raises(EstimationError):
        mqle(QLContext(ou_model, path))


def test_mqle_search_gives_a_too_short_path_its_error_unsearched(ou_model, ou_ctx_1000,
                                                                   monkeypatch):
    short = QLContext(ou_model, SamplePath(delta=0.01, values=[0.5, 0.51, 0.49, 0.5]))
    searched = []
    search = estimate._search_and_polish

    def counted(ctxs, *args, **kwargs):
        searched.append(len(ctxs))
        return search(ctxs, *args, **kwargs)

    monkeypatch.setattr(estimate, "_search_and_polish", counted)
    (entry,) = mqle_search([short])
    assert isinstance(entry, EstimationError) and "path too short" in str(entry)
    assert searched == []
    # beside a searchable path, only that one is searched
    cheap = FitOptions(n_starts=2, polish_top=1)
    fit, entry, again = mqle_search([ou_ctx_1000, short, ou_ctx_1000], cheap)
    assert isinstance(entry, EstimationError) and searched == [2]
    ref = mqle(ou_ctx_1000, cheap)
    for f in (fit, again):
        assert f.theta_hat.full.tobytes() == ref.theta_hat.full.tobytes()
        assert dataclasses.replace(f, theta_hat=None) == dataclasses.replace(ref, theta_hat=None)


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


def test_zero_diffusion_in_the_box_raises_domain_error_in_every_fit(ou_model, ou_c_zero_below_one):
    # every fit evaluates the one quasi-likelihood kernel at points of the
    # box where c = 0, which it refuses, even on a path that favours b1 = 2
    path = euler_maruyama(ou_model, ParamVector([0.5, 0.5], [2.0]),
                          SimConfig(n=200, delta=0.01, x0=0.5, seed=11))
    ctx = QLContext(ou_c_zero_below_one, path)
    for fit in (mqle, initial_beta, adaptive_estimate):
        with pytest.raises(DomainError):
            fit(ctx)
