"""Model layer: parameter containers, built-in models, variance-expansion
coefficients and invariant-law descriptors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qltest import (
    ConfigError,
    DomainError,
    ParamBox,
    ParamVector,
    correction_d1,
    correction_e1,
    default_box,
    gamma2,
    make_cir,
    make_model,
    make_ou,
    mean_expansion_r1,
)

from oracles import reference_gamma2


def test_param_vector_blocks():
    theta = ParamVector([0.5, 0.5], [0.25])
    assert theta.m1 == 2 and theta.m2 == 1 and theta.dim == 3
    np.testing.assert_allclose(theta.full, [0.5, 0.5, 0.25])


def test_param_vector_from_full_round_trip():
    theta = ParamVector.from_full([1.0, 2.0, 3.0], 2, 1)
    np.testing.assert_allclose(theta.alpha, [1.0, 2.0])
    np.testing.assert_allclose(theta.beta, [3.0])
    with pytest.raises(ConfigError):
        ParamVector.from_full([1.0, 2.0], 2, 1)


def test_param_vector_replace():
    theta = ParamVector([0.5, 0.5], [0.25])
    assert theta.replace_alpha([1.0, 1.0]).alpha[0] == 1.0
    assert theta.replace_beta([0.5]).beta[0] == 0.5
    # original is unchanged (frozen)
    assert theta.alpha[0] == 0.5 and theta.beta[0] == 0.25


def test_param_vector_empty_block_rejected():
    with pytest.raises(ConfigError):
        ParamVector([], [0.25])


def test_param_box_contains_center_clip():
    box = ParamBox([0.0, 0.0], [1.0, 2.0])
    assert box.dim == 2
    assert box.contains([0.5, 1.0])
    assert not box.contains([1.5, 1.0])
    assert not box.contains([0.005, 1.0], margin=0.01)
    np.testing.assert_allclose(box.center(), [0.5, 1.0])
    np.testing.assert_allclose(box.clip([-1.0, 5.0]), [0.0, 2.0])


def test_param_box_invalid():
    with pytest.raises(ConfigError):
        ParamBox([1.0], [1.0])
    with pytest.raises(ConfigError):
        ParamBox([0.0, 0.0], [1.0])


def test_gamma2_ou_closed_form(ou_model, theta0_ou):
    # constant diffusion: gamma2 = -a1 * b1^2 = -0.03125, independent of x
    for x in (-1.0, 0.0, 0.5, 2.0):
        assert gamma2(ou_model, theta0_ou, x) == pytest.approx(-0.03125, abs=1e-14)


def test_gamma2_cir_affine_in_x(cir_model, theta0_cir):
    # gamma2 = (a1 b1^2 / 2)(a2 - 3x)
    a1, a2 = theta0_cir.alpha
    b1 = theta0_cir.beta[0]
    for x in (0.2, 1.0, 3.0):
        expected = 0.5 * a1 * b1**2 * (a2 - 3.0 * x)
        assert gamma2(cir_model, theta0_cir, x) == pytest.approx(expected, abs=1e-14)
    assert gamma2(cir_model, theta0_cir, 1.0) == pytest.approx(-0.009765625, abs=1e-14)


@pytest.mark.parametrize("model_id", ["ou", "cir"])
def test_corrections_are_shaped_like_x(model_id):
    # every product formed over x, as the formula reads: x's shape and the
    # formula's values, NaN where the OU drift overflows and is times dc = 0
    model = make_model(model_id)
    theta = ParamVector([5.0, 0.5], [0.25])
    x = np.array([0.2, 1e308, 3.0]) if model_id == "cir" else np.array([0.2, 1e308, -1e308])
    with np.errstate(all="ignore"):
        c = model.diffsq(theta, x)
        full = reference_gamma2(
            model.drift(theta, x), c, model.diffsq_dx(theta, x),
            model.diffsq_dxx(theta, x), model.drift_dx(theta, x),
        )
        values = [f(model, theta, x) for f in (gamma2, correction_d1, correction_e1)]
    for value, expected in zip(values, [full, -full / c, -(-full / c)]):
        assert value.shape == (3,)
        assert np.array_equal(value.view(np.uint64), expected.view(np.uint64))
    assert np.isnan(values[0][1]) == (model_id == "ou")
    assert np.ndim(gamma2(model, theta, 0.5)) == 0


@settings(max_examples=50, deadline=None)
@given(
    a1=st.floats(0.05, 4.9),
    a2=st.floats(0.05, 4.9),
    b1=st.floats(0.05, 4.9),
    x=st.floats(-3.0, 3.0),
)
def test_corrections_cancel_exactly(a1, a2, b1, x):
    model = make_ou()
    theta = ParamVector([a1, a2], [b1])
    d1 = correction_d1(model, theta, x)
    e1 = correction_e1(model, theta, x)
    assert d1 + e1 == 0.0
    assert math.isfinite(d1)


def test_ou_invariant_law(ou_model, theta0_ou):
    law = ou_model.invariant_law(theta0_ou)
    assert law.kind == "gaussian"
    assert law.mean() == pytest.approx(0.5)
    assert law.var() == pytest.approx(0.25**2 / (2 * 0.5))


def test_cir_invariant_law(cir_model, theta0_cir):
    law = cir_model.invariant_law(theta0_cir)
    assert law.kind == "gamma"
    shape, scale = law.params
    assert shape == pytest.approx(2 * 0.5 * 0.5 / 0.125**2)
    assert law.mean() == pytest.approx(0.5)
    assert law.var() == pytest.approx(shape * scale**2)


def test_mean_expansion_r1(ou_model, theta0_ou):
    # r1 = x + delta * a1 (a2 - x)
    assert mean_expansion_r1(ou_model, theta0_ou, 1.0, 0.01) == pytest.approx(
        1.0 + 0.01 * 0.5 * (0.5 - 1.0)
    )
    with pytest.raises(ConfigError):
        mean_expansion_r1(ou_model, theta0_ou, 1.0, -0.01)


def test_make_model_dispatch():
    assert make_model("ou").name == "ou"
    assert make_model("CIR").name == "cir"
    with pytest.raises(ConfigError):
        make_model("gbm")


def test_builtin_box_validation():
    with pytest.raises(ConfigError):
        make_ou(ParamBox([0.01, 0.01], [5.0, 5.0]))  # wrong dimension
    with pytest.raises(ConfigError):
        make_ou(ParamBox([0.01, 0.01, -1.0], [5.0, 5.0, 5.0]))  # b1 lower <= 0


def test_default_box():
    box = default_box()
    np.testing.assert_allclose(box.lower, 0.01)
    np.testing.assert_allclose(box.upper, 5.0)


def test_check_theta(ou_model):
    with pytest.raises(ConfigError):
        ou_model.check_theta(ParamVector([0.5], [0.25]))  # wrong block sizes
    with pytest.raises(ConfigError):
        ou_model.check_theta(ParamVector([0.5, 6.0], [0.25]))  # outside box


def test_check_domain(cir_model):
    cir_model.check_domain(0.5)
    with pytest.raises(DomainError):
        cir_model.check_domain(-1.0)
    with pytest.raises(DomainError):
        cir_model.check_domain(0.0)  # domain is open


def test_diffsq_is_squared_diff(cir_model, theta0_cir):
    x = np.array([0.25, 1.0, 4.0])
    np.testing.assert_allclose(
        cir_model.diffsq(theta0_cir, x), cir_model.diff(theta0_cir, x) ** 2
    )
