"""Built-in model callbacks against an array-returning reference.

The built-in OU and CIR callbacks return a scalar where the value does not
depend on x.  The reference models here return arrays shaped like x (via
``np.ones_like``/``np.zeros_like``) for the same quantities.  Each element
is computed by the same floating-point operations in the same order either
way, so paths, terms, fits, information matrices and power-table bytes must
be equal bit for bit, not merely close.
"""

import dataclasses

import numpy as np
import pytest

from qltest import (
    ExperimentConfig,
    ParamVector,
    QLContext,
    SimConfig,
    euler_maruyama,
    fisher_info,
    make_model,
    mqle,
    observed_info,
    ql_grad,
    ql_terms,
    ql_total,
    run_table,
)
from qltest import montecarlo

THETA0 = {
    "ou": ParamVector([0.5, 0.5], [0.25]),
    "cir": ParamVector([0.5, 0.5], [0.125]),
}


def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _linear_drift_dx(theta, x):
    return -theta.alpha[0] * _ones(x)


def _ou_diff(theta, x):
    return theta.beta[0] * _ones(x)


def _cir_diffsq_dx(theta, x):
    b = theta.beta[0]
    return b * b * _ones(x)


def _zero(theta, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def reference_model(model_id, box=None):
    """The built-in model with every x-independent callback returning an array."""
    model = make_model(model_id, box)
    if model.name == "ou":
        return dataclasses.replace(
            model, diff=_ou_diff, drift_dx=_linear_drift_dx, diffsq_dx=_zero, diffsq_dxx=_zero
        )
    return dataclasses.replace(
        model, drift_dx=_linear_drift_dx, diffsq_dx=_cir_diffsq_dx, diffsq_dxx=_zero
    )


def _sim(model, model_id, n, seed):
    delta = n ** (-2.0 / 3.0)
    return euler_maruyama(model, THETA0[model_id], SimConfig(n=n, delta=delta, x0=1.0, seed=seed))


@pytest.fixture(scope="module", params=["ou", "cir"])
def model_id(request):
    return request.param


def test_reference_callbacks_return_arrays(model_id):
    model = reference_model(model_id)
    x = np.array([0.5, 1.0, 2.0])
    theta = THETA0[model_id]
    for callback in (model.drift, model.diff, model.drift_dx, model.diffsq_dx, model.diffsq_dxx):
        assert np.shape(callback(theta, x)) == x.shape


def test_euler_maruyama_bit_identical(model_id):
    ours = _sim(make_model(model_id), model_id, 200, seed=31)
    ref = _sim(reference_model(model_id), model_id, 200, seed=31)
    assert np.array_equal(ours.values, ref.values)


@pytest.mark.parametrize("n", [100, 1000])
def test_ql_terms_bit_identical(model_id, n):
    path = _sim(make_model(model_id), model_id, n, seed=n + 7)
    ours = QLContext(make_model(model_id), path)
    ref = QLContext(reference_model(model_id), path)
    for theta in (THETA0[model_id], ParamVector([1.3, 0.8], [0.4])):
        assert np.array_equal(ql_terms(ours, theta), ql_terms(ref, theta))
        assert ql_total(ours, theta) == ql_total(ref, theta)


def test_mqle_and_information_bit_identical(model_id):
    path = _sim(make_model(model_id), model_id, 100, seed=2024)
    ours = QLContext(make_model(model_id), path)
    ref = QLContext(reference_model(model_id), path)
    fit, fit_ref = mqle(ours), mqle(ref)
    assert np.array_equal(fit.theta_hat.full, fit_ref.theta_hat.full)
    assert fit.objective == fit_ref.objective
    assert fit.iterations == fit_ref.iterations
    assert (fit.converged, fit.at_boundary) == (fit_ref.converged, fit_ref.at_boundary)

    theta0 = THETA0[model_id]
    assert np.array_equal(ql_grad(ours, theta0), ql_grad(ref, theta0))
    assert np.array_equal(
        observed_info(ours, theta0).full(), observed_info(ref, theta0).full()
    )
    assert np.array_equal(
        fisher_info(ours, fit.theta_hat).full(), fisher_info(ref, fit_ref.theta_hat).full()
    )


def test_run_table_csv_bytes_identical(model_id, tmp_path, monkeypatch):
    config = ExperimentConfig(
        model_id=model_id, theta0=THETA0[model_id], n=50, h_grid=(0.0, 1.0),
        replications=50, master_seed=19,
    )
    ours = tmp_path / "ours.csv"
    ref = tmp_path / "ref.csv"
    run_table(config, ours)
    monkeypatch.setattr(montecarlo, "make_model", reference_model)
    assert config.model().diffsq_dxx is _zero
    run_table(config, ref)
    assert ours.read_bytes() == ref.read_bytes()
