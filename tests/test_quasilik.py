"""Per-observation quasi-loglikelihood terms, finite-difference
derivatives and information matrices, checked against frozen arithmetic,
a higher-order stencil, and the exact Gaussian transition density.  The
stencils evaluated as row calls must equal the scalar loop over the same
stencil bit for bit, and fail where and as it fails."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import optimize

from qltest import (
    BoundaryError,
    DomainError,
    FitOptions,
    FitResult,
    Model,
    ParamBox,
    ParamVector,
    QLContext,
    SamplePath,
    fisher_info,
    make_model,
    make_ou,
    mqle,
    observed_info,
    ql_grad,
    ql_hess,
    ql_term,
    ql_terms,
    ql_total,
    SimConfig,
    euler_maruyama,
)
from qltest import quasilik
from qltest.estimate import _BIG, _safe
from qltest.montecarlo import _statistic_values
from qltest.quasilik import _objective, fd_gradient, fd_hessian


@pytest.fixture()
def flat_ctx(ou_model):
    # constant path at the drift fixed point: residuals vanish exactly
    path = SamplePath(delta=0.01, values=[0.5, 0.5, 0.5, 0.5])
    return QLContext(ou_model, path)


def test_ql_term_frozen_value(flat_ctx, theta0_ou):
    # residual 0, c = 0.0625, d1 = 0.5:
    # term = 0.5 * (log 0.0625 - 0.01 * 0.5) = -1.3887945...
    expected = 0.5 * (math.log(0.0625) - 0.005)
    assert expected == pytest.approx(-1.388794, abs=1e-6)
    for i in (1, 2, 3):
        assert ql_term(flat_ctx, theta0_ou, i) == pytest.approx(expected, abs=1e-12)


def test_ql_term_index_bounds(flat_ctx, theta0_ou):
    with pytest.raises(IndexError):
        ql_term(flat_ctx, theta0_ou, 0)
    with pytest.raises(IndexError):
        ql_term(flat_ctx, theta0_ou, 4)


def test_ql_total_is_sum_of_terms(ou_ctx_1000, theta0_ou):
    terms = ql_terms(ou_ctx_1000, theta0_ou)
    assert terms.shape == (1000,)
    assert ql_total(ou_ctx_1000, theta0_ou) == pytest.approx(float(np.sum(terms)))


def _const(value):
    def f(theta, x):
        return value * np.ones_like(np.asarray(x, dtype=float))

    return f


def test_zero_correction_model_reduces_to_plain_contrast():
    # driftless constant-diffusion model: d1 = e1 = 0, so the terms must
    # equal the plain local-Gaussian contrast dx^2/(2 delta c) + log(c)/2
    beta = 0.7
    model = Model(
        m1=1,
        m2=1,
        drift=_const(0.0),
        diff=lambda theta, x: theta.beta[0] * np.ones_like(np.asarray(x, dtype=float)),
        drift_dx=_const(0.0),
        diffsq_dx=_const(0.0),
        diffsq_dxx=_const(0.0),
        state_domain=(-math.inf, math.inf),
        box=ParamBox([0.01, 0.01], [5.0, 5.0]),
        name="flat",
    )
    rng = np.random.default_rng(5)
    values = np.cumsum(rng.standard_normal(50)) * 0.1
    path = SamplePath(delta=0.02, values=values)
    ctx = QLContext(model, path)
    theta = ParamVector([1.0], [beta])
    c = beta**2
    dx2 = np.diff(values) ** 2
    expected = dx2 / (2.0 * 0.02 * c) + 0.5 * math.log(c)
    np.testing.assert_allclose(ql_terms(ctx, theta), expected, rtol=1e-12)


def test_ql_total_matches_exact_gaussian_loglik(ou_ctx_1000, theta0_ou):
    # exact transition: X_i | x ~ N(a2 + (x - a2) e^{-a1 d}, b1^2 (1 - e^{-2 a1 d}) / (2 a1))
    a1, a2 = theta0_ou.alpha
    b1 = theta0_ou.beta[0]
    d = ou_ctx_1000.path.delta
    x = ou_ctx_1000.path.values
    m = a2 + (x[:-1] - a2) * math.exp(-a1 * d)
    v = b1**2 * (1.0 - math.exp(-2.0 * a1 * d)) / (2.0 * a1)
    # exact negative loglik per term, with the constant log(2 pi d)/2 removed
    exact = (x[1:] - m) ** 2 / (2.0 * v) + 0.5 * math.log(v / d)
    quasi = ql_total(ou_ctx_1000, theta0_ou)
    assert abs(quasi - float(np.sum(exact))) / 1000 <= 5e-3


def test_fd_gradient_against_analytic_and_stencil():
    def f(v):
        return math.sin(v[0]) + v[0] * v[1] ** 2

    x = np.array([0.8, 1.3])
    grad = fd_gradient(f, x)
    analytic = np.array([math.cos(0.8) + 1.3**2, 2.0 * 0.8 * 1.3])
    np.testing.assert_allclose(grad, analytic, atol=1e-7)

    # independent 4-point stencil oracle
    h = 1e-4
    stencil = np.empty(2)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        stencil[j] = (
            -f(x + 2 * e) + 8 * f(x + e) - 8 * f(x - e) + f(x - 2 * e)
        ) / (12 * h)
    np.testing.assert_allclose(grad, stencil, atol=1e-7)


def test_fd_gradient_boundary_guard():
    with pytest.raises(BoundaryError) as exc:
        fd_gradient(lambda v: float(v[0] + v[1]), np.array([1e-9, 1.0]),
                    lower=np.array([0.0, 0.0]), upper=np.array([5.0, 5.0]))
    assert exc.value.coordinate == 0


def test_fd_hessian_quadratic_exact():
    A = np.array([[2.0, 0.3], [0.3, 1.5]])

    def f(v):
        return 0.5 * float(v @ A @ v)

    H = fd_hessian(f, np.array([0.4, -0.2]))
    np.testing.assert_allclose(H, A, atol=1e-5)
    np.testing.assert_allclose(H, H.T)


def test_ql_grad_small_at_fit(ou_ctx_1000, ou_fit_1000):
    g = ql_grad(ou_ctx_1000, ou_fit_1000.theta_hat)
    assert np.max(np.abs(g)) <= 1e-4 * (1.0 + abs(ou_fit_1000.objective))


def test_ql_hess_symmetric(ou_ctx_1000, theta0_ou):
    H = ql_hess(ou_ctx_1000, theta0_ou)
    np.testing.assert_allclose(H, H.T)


def test_observed_info_symmetric_and_finite(ou_ctx_1000, theta0_ou):
    info = observed_info(ou_ctx_1000, theta0_ou).full()
    assert info.shape == (3, 3)
    assert np.all(np.isfinite(info))
    np.testing.assert_allclose(info, info.T)


def test_fisher_info_ou_closed_form_entries(ou_ctx_1000, theta0_ou):
    info = fisher_info(ou_ctx_1000, theta0_ou)
    np.testing.assert_allclose(info.block_ab, 0.0)
    a1, a2 = theta0_ou.alpha
    b1 = theta0_ou.beta[0]
    c = b1**2
    # a2 and b1 entries are constant in x, hence exact up to FD error
    assert info.block_aa[1, 1] == pytest.approx(a1**2 / c, rel=1e-6)
    assert info.block_bb[0, 0] == pytest.approx(0.5 * (2.0 / b1) ** 2, rel=1e-6)
    # a1 entry is the path average of (a2 - x)^2 / c
    xprev = ou_ctx_1000.path.values[:-1]
    assert info.block_aa[0, 0] == pytest.approx(
        float(np.mean((a2 - xprev) ** 2)) / c, rel=1e-6
    )


def test_observed_info_matches_fisher_info_at_truth(ou_ctx_1000, theta0_ou):
    obs = np.diag(observed_info(ou_ctx_1000, theta0_ou).full())
    fis = np.diag(fisher_info(ou_ctx_1000, theta0_ou).full())
    np.testing.assert_allclose(obs, fis, rtol=0.10)


def test_fisher_info_ergodic_average(ou_model, theta0_ou):
    # averaged over independent paths, the a1 entry approaches the
    # invariant-law value 1/(2 a1) = 1.0 (diag target (1, 4, 32))
    diags = []
    for seed in range(25):
        path = euler_maruyama(
            ou_model, theta0_ou, SimConfig(n=2000, delta=0.01, x0=0.5, seed=1000 + seed, refine=3)
        )
        diags.append(np.diag(fisher_info(QLContext(ou_model, path), theta0_ou).full()))
    mean_diag = np.mean(diags, axis=0)
    np.testing.assert_allclose(mean_diag, [1.0, 4.0, 32.0], rtol=0.20)


# --- the row-evaluated stencils against the scalar loop over the same stencil ---

_THETA0 = {
    "ou": ParamVector([0.5, 0.5], [0.25]),
    "cir": ParamVector([0.5, 0.5], [0.125]),
}


def _stencil_cases():
    """(ctx, theta) on OU and CIR paths at n in {100, 1000}, at theta_hat and theta0."""
    cases = []
    for model_id in ("ou", "cir"):
        model = make_model(model_id)
        for n in (100, 1000):
            delta = n ** (-2.0 / 3.0)
            path = euler_maruyama(model, _THETA0[model_id],
                                  SimConfig(n=n, delta=delta, x0=1.0, seed=n + 7))
            ctx = QLContext(model, path)
            fit = mqle(ctx, FitOptions(n_starts=2, polish_top=1))
            cases += [(ctx, fit.theta_hat), (ctx, _THETA0[model_id])]
    return cases


@pytest.fixture(scope="module")
def stencil_cases():
    return _stencil_cases()


def _scalar_hessian(ctx, theta):
    box = ctx.model.box
    return fd_hessian(_objective(ctx), theta.full, box.lower, box.upper)


# the central differences written out one coordinate (pair) at a time: the
# arithmetic, in the order, that every stencil rule must reproduce

def _loop_steps(x):
    return quasilik.FD_REL_STEP * np.maximum(1.0, np.abs(x))


def _loop_gradient(f, x):
    h = _loop_steps(x)
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h[j]
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h[j])
    return g


def _loop_hessian(f, x):
    h = _loop_steps(x)
    d = x.size
    H = np.empty((d, d))
    f0 = f(x)
    for j in range(d):
        ej = np.zeros_like(x)
        ej[j] = h[j]
        H[j, j] = (f(x + ej) + f(x - ej) - 2.0 * f0) / (h[j] * h[j])
        for k in range(j + 1, d):
            ek = np.zeros_like(x)
            ek[k] = h[k]
            H[j, k] = (
                f(x + ej + ek) - f(x + ej - ek) - f(x - ej + ek) + f(x - ej - ek)
            ) / (4.0 * h[j] * h[k])
            H[k, j] = H[j, k]
    return 0.5 * (H + H.T)


def _loop_fisher(ctx, theta):
    model, xprev = ctx.model, ctx.xprev
    c = np.asarray(model.diffsq(theta, xprev), dtype=float)

    def derivative(x, f):
        h = _loop_steps(x)
        out = np.empty((x.size, xprev.size))
        for j in range(x.size):
            e = np.zeros(x.size)
            e[j] = h[j]
            out[j] = (np.asarray(f(x + e), dtype=float) - np.asarray(f(x - e), dtype=float)) / (
                2.0 * h[j])
        return out

    db = derivative(theta.alpha, lambda a: model.drift(theta.replace_alpha(a), xprev))
    dcb = derivative(theta.beta, lambda b: model.diffsq(theta.replace_beta(b), xprev))
    return (db / c) @ db.T / xprev.size, 0.5 * (dcb / c**2) @ dcb.T / xprev.size


def test_fd_rules_equal_the_written_out_loops():
    def f(v):
        return float(np.sin(v).sum() * np.exp(v[0]) + (v**3).sum() * v[-1])

    rng = np.random.default_rng(2)
    for d in (1, 2, 3, 4):
        for scale in (1e-3, 1.0, 1e2):
            x = rng.normal(size=d) * scale
            assert np.array_equal(fd_gradient(f, x), _loop_gradient(f, x))
            assert np.array_equal(fd_hessian(f, x), _loop_hessian(f, x))


def test_row_stencils_equal_scalar_loop(stencil_cases, monkeypatch):
    for ctx, theta in stencil_cases:
        box = ctx.model.box
        f = _objective(ctx)
        grad = ql_grad(ctx, theta)
        assert np.array_equal(grad, fd_gradient(f, theta.full, box.lower, box.upper))
        assert np.array_equal(grad, _loop_gradient(f, theta.full))
        hess = ql_hess(ctx, theta)
        assert np.array_equal(hess, _scalar_hessian(ctx, theta))
        assert np.array_equal(hess, _loop_hessian(f, theta.full))
        info = fisher_info(ctx, theta)
        block_aa, block_bb = _loop_fisher(ctx, theta)
        assert np.array_equal(info.block_aa, block_aa)
        assert np.array_equal(info.block_bb, block_bb)
    rows = [observed_info(ctx, theta).full() for ctx, theta in stencil_cases]
    monkeypatch.setattr(quasilik, "ql_hess", _scalar_hessian)
    for (ctx, theta), info in zip(stencil_cases, rows):
        assert np.array_equal(info, observed_info(ctx, theta).full())


def _drift_nan_above_four(theta, x):
    """OU drift that is NaN where a1 > 4: a region where ql_total is non-finite."""
    a1, a2 = theta.alpha
    return np.where(a1 > 4.0, np.nan, a1 * (a2 - x))


@pytest.fixture(scope="module")
def nan_ctx():
    model = dataclasses.replace(make_ou(), drift=_drift_nan_above_four)
    path = euler_maruyama(make_ou(), _THETA0["ou"], SimConfig(n=100, delta=0.05, x0=1.0, seed=3))
    return QLContext(model, path)


# a1 half a step below 4: the stencil point a1 + h lies in the NaN region
_NEAR_NAN = np.array([4.0 - 0.5 * quasilik.FD_REL_STEP * 4.0, 0.5, 0.25])


def test_polish_jac_equals_scalar_loop_on_safe_objective(stencil_cases, nan_ctx, monkeypatch):
    minimize = optimize.minimize
    jacs = []

    def spy(fun, x0, jac=None, **kwargs):
        jacs.append(jac)
        return minimize(fun, x0, jac=jac, **kwargs)

    monkeypatch.setattr(optimize, "minimize", spy)
    checked = 0
    for ctx, theta in stencil_cases[::2] + [(nan_ctx, _THETA0["ou"])]:
        del jacs[:]
        mqle(ctx, FitOptions(n_starts=2, polish_top=1))
        f = _safe(_objective(ctx))
        points = [theta.full, _THETA0[ctx.model.name].full]
        if ctx is nan_ctx:
            points.append(_NEAR_NAN)
            assert f(_NEAR_NAN + np.diag(quasilik._steps(_NEAR_NAN))[0]) == _BIG
        for jac in jacs:
            for v in points:
                assert np.array_equal(jac(v), fd_gradient(f, v))
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("coordinate", [0, 1, 2])
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_stencil_within_a_step_of_the_box_raises_boundary_error(ou_ctx_1000, coordinate, side):
    box = ou_ctx_1000.model.box
    v = _THETA0["ou"].full.copy()
    edge = getattr(box, side)[coordinate]
    inward = 1.0 if side == "lower" else -1.0
    v[coordinate] = edge + inward * 0.5 * quasilik.FD_REL_STEP * max(1.0, abs(edge))
    theta = ParamVector(v[:2], v[2:])
    for rows, scalar in ((ql_hess, fd_hessian), (ql_grad, fd_gradient)):
        with pytest.raises(BoundaryError) as row_exc:
            rows(ou_ctx_1000, theta)
        with pytest.raises(BoundaryError) as scalar_exc:
            scalar(_objective(ou_ctx_1000), v, box.lower, box.upper)
        assert row_exc.value.coordinate == scalar_exc.value.coordinate == coordinate


def _diff_zero_below_one(theta, x):
    """A diffusion coefficient that is 0 where b1 <= 1."""
    b1 = theta.beta[0]
    return np.where(b1 > 1.0, b1, 0.0)


def test_stencil_point_with_zero_diffusion_raises_domain_error(ou_ctx_1000):
    model = dataclasses.replace(ou_ctx_1000.model, diff=_diff_zero_below_one)
    ctx = QLContext(model, ou_ctx_1000.path)
    # b1 half a step above 1: the stencil point b1 - h has c = 0
    theta = ParamVector([0.5, 0.5], [1.0 + 0.5 * quasilik.FD_REL_STEP])
    ql_total(ctx, theta)  # the centre itself is fine
    for rows, scalar in ((ql_hess, fd_hessian), (ql_grad, fd_gradient)):
        with pytest.raises(DomainError):
            rows(ctx, theta)
        with pytest.raises(DomainError):
            scalar(_objective(ctx), theta.full)


def test_non_finite_stencil_value_leaves_information_non_finite(nan_ctx):
    theta_hat = ParamVector(_NEAR_NAN[:2], _NEAR_NAN[2:])
    assert math.isfinite(ql_total(nan_ctx, theta_hat))
    info = observed_info(nan_ctx, theta_hat).full()
    assert not np.all(np.isfinite(info))
    assert not np.any(info == _BIG)
    fit = FitResult(theta_hat, 0.0, False, 0, 0)
    row = _statistic_values(nan_ctx, fit, _THETA0["ou"], ("T", "WALD", "RAO"))
    assert math.isfinite(row[0])
    assert np.isnan(row[1]) and np.isnan(row[2])
