"""The lockstep Nelder-Mead search against scipy's per-start search.

``estimate._nelder_mead`` runs many bounded Nelder-Mead searches as rows of
one array program.  Each row must take exactly the steps of
``scipy.optimize.minimize(method="Nelder-Mead", bounds=...)`` from the same
start on the same objective, so every row's x, fun and nit must be equal,
not merely close.  The fits built on it must equal a reference fit, kept
here, that runs scipy's Nelder-Mead once per start and then the same polish.
"""

import numpy as np
import pytest
from scipy import optimize

from qltest import (
    FitOptions,
    FitResult,
    ParamVector,
    QLContext,
    SimConfig,
    adaptive_estimate,
    euler_maruyama,
    initial_beta,
    make_model,
    mqle,
    ql_total,
)
from qltest.estimate import (
    _BIG,
    _NM_FATOL,
    _NM_XATOL,
    _guarded,
    _heuristic_start,
    _nelder_mead,
    _polish,
    _safe,
    _start_points,
    mqle_search,
)
from qltest.quasilik import _CHUNK_VALUES, _objective, _ql_rows, _split

THETA0 = {
    "ou": ParamVector([0.5, 0.5], [0.25]),
    "cir": ParamVector([0.5, 0.5], [0.125]),
}
XATOL, FATOL = 1e-4, 1e-8


def _ctxs(model_id, n, count, seed=0):
    model = make_model(model_id)
    delta = n ** (-2.0 / 3.0)
    return [
        QLContext(model, euler_maruyama(
            model, THETA0[model_id], SimConfig(n=n, delta=delta, x0=1.0, seed=seed + i)))
        for i in range(count)
    ]


def _scipy_rows(objectives, starts, lower, upper, maxfev):
    """scipy's Nelder-Mead from each start on its own scalar objective."""
    out = []
    for f, x0 in zip(objectives, starts):
        out.append(optimize.minimize(
            f, x0, method="Nelder-Mead", bounds=list(zip(lower, upper)),
            options=dict(xatol=XATOL, fatol=FATOL, maxiter=maxfev, maxfev=maxfev),
        ))
    return out


def _assert_rows_equal(lockstep, results):
    x, fun, nit = lockstep
    assert x.shape[0] == len(results)
    for r, res in enumerate(results):
        assert np.array_equal(x[r], res.x), r
        assert np.array_equal(fun[r], res.fun), r
        assert nit[r] == res.nit, r


def _full_problem(ctxs, starts_per_path, extra_starts=()):
    """Rows (path, start) over the whole box, as the Monte Carlo harness runs them."""
    box = ctxs[0].model.box
    m1 = ctxs[0].model.m1
    starts, row_ctx = [], []
    for i, ctx in enumerate(ctxs):
        for x0 in _start_points(box.lower, box.upper, starts_per_path,
                                extra=_heuristic_start(ctx)):
            starts.append(x0)
            row_ctx.append(i)
    for i, x0 in extra_starts:
        starts.append(np.asarray(x0, dtype=float))
        row_ctx.append(i)
    row_ctx = np.array(row_ctx)
    f_rows = _guarded(_ql_rows(ctxs, _split(m1), row_ctx))
    objectives = [_safe(_objective(ctxs[i], ql_total)) for i in row_ctx]
    return f_rows, np.array(starts), objectives, box


@pytest.mark.parametrize("model_id", ["ou", "cir"])
@pytest.mark.parametrize("n, paths", [(100, 30), (1000, 3)])
def test_rows_equal_scipy(model_id, n, paths):
    ctxs = _ctxs(model_id, n, paths, seed=n)
    # one start on the upper bound: its initial simplex is reflected into the box
    upper = ctxs[0].model.box.upper
    f_rows, starts, objectives, box = _full_problem(
        ctxs, 3, extra_starts=[(0, upper), (1, [0.3, upper[1], 0.2])])
    chunk = _CHUNK_VALUES // n
    assert len(starts) % chunk != 0  # the last chunk is a partial one
    maxfev = 200 * box.dim
    lockstep = _nelder_mead(f_rows, starts, box.lower, box.upper, XATOL, FATOL, maxfev)
    _assert_rows_equal(lockstep, _scipy_rows(objectives, starts, box.lower, box.upper, maxfev))


def _recording(f, calls):
    def g(v):
        calls.append(f(v))
        return calls[-1]

    return g


_TARGET = np.array([1.0, 2.0, 0.5])


def _staircase(x):
    """A rough objective, on which Nelder-Mead often shrinks its simplex.

    It reads _BIG, as a failed evaluation does, where x[0] > 3.
    """
    rough = np.abs(x - _TARGET).sum(axis=-1) + np.floor(4.0 * x).sum(axis=-1)
    return np.where(x[..., 0] > 3.0, _BIG, rough)


def _staircase_problem():
    box = make_model("ou").box
    starts = box.lower + np.random.default_rng(0).random((60, 3)) * (box.upper - box.lower)
    return (lambda rows, points: _staircase(points)), starts, [_staircase] * 60, box


def test_staircase_rows_equal_scipy():
    f_rows, starts, objectives, box = _staircase_problem()
    lockstep = _nelder_mead(f_rows, starts, box.lower, box.upper, XATOL, FATOL, 600)
    _assert_rows_equal(lockstep, _scipy_rows(objectives, starts, box.lower, box.upper, 600))


@pytest.mark.parametrize("problem", ["ou", "cir", "staircase"])
def test_small_budgets_stop_rows_mid_iteration(problem):
    if problem == "staircase":
        f_rows, starts, objectives, box = _staircase_problem()
    else:
        f_rows, starts, objectives, box = _full_problem(_ctxs(problem, 100, 12, seed=3), 4)
    in_expansion = in_shrink = 0
    for maxfev in (7, 13, 29):
        lockstep = _nelder_mead(f_rows, starts, box.lower, box.upper, XATOL, FATOL, maxfev)
        calls = [[] for _ in starts]
        results = _scipy_rows([_recording(f, c) for f, c in zip(objectives, calls)],
                              starts, box.lower, box.upper, maxfev)
        _assert_rows_equal(lockstep, results)
        for f, c, res in zip(objectives, calls, results):
            # out of budget at an expansion, the better reflected point was
            # evaluated last but never entered the simplex
            in_expansion += c[-1] < res.fun
            # out of budget inside a shrink, a moved vertex keeps its old value
            sim, fsim = res.final_simplex
            in_shrink += any(f(v) != fv for v, fv in zip(sim, fsim))
    assert in_expansion > 0
    # the quasi-likelihood is too smooth to shrink within these budgets
    assert in_shrink > 0 or problem != "staircase"


@pytest.mark.parametrize("model_id", ["ou", "cir"])
def test_one_dimensional_rows_equal_scipy(model_id):
    # the beta step of the adaptive fit: a 1-d search, alpha held fixed
    ctxs = _ctxs(model_id, 1000, 1, seed=11)
    model = ctxs[0].model
    alpha = np.array([0.7, 0.4])
    lower, upper = model.box.lower[2:], model.box.upper[2:]
    starts = np.array(_start_points(lower, upper, 6, extra=[0.2]) + [upper])
    f_rows = _guarded(_ql_rows(ctxs, lambda bv: ParamVector._wrap(alpha, bv)))
    objectives = [_safe(lambda bv: ql_total(ctxs[0], ParamVector(alpha, bv)))] * len(starts)
    lockstep = _nelder_mead(f_rows, starts, lower, upper, XATOL, FATOL, 200)
    _assert_rows_equal(lockstep, _scipy_rows(objectives, starts, lower, upper, 200))


def test_cir_rows_equal_ql_total_where_pow_and_product_differ():
    # numpy evaluates ** on a scalar with C pow but squares an array; at these
    # beta the two differ in the last bit, so a callback written with ** would
    # give a row and the scalar ql_total different objectives
    ctxs = _ctxs("cir", 100, 3)
    box = ctxs[0].model.box
    betas = np.random.default_rng(0).uniform(box.lower[2], box.upper[2], 400_000)
    betas = betas[[b ** 2 != b * b for b in betas]]
    assert betas.size > 100
    alpha = np.array([0.5, 0.5])
    row_ctx = np.repeat(np.arange(len(ctxs)), betas.size)
    f_rows = _ql_rows(ctxs, lambda bv: ParamVector._wrap(alpha, bv), row_ctx)
    rows = f_rows(np.arange(row_ctx.size), np.tile(betas, len(ctxs))[:, None])
    scalar = [ql_total(ctx, ParamVector(alpha, [b])) for ctx in ctxs for b in betas]
    assert np.array_equal(rows, scalar)


def test_row_objective_reads_non_finite_as_big():
    f_rows = _guarded(lambda rows, points: np.array([1.0, np.nan, np.inf, -np.inf])[rows])
    out = f_rows(np.arange(4), np.zeros((4, 3)))
    assert np.array_equal(out, [1.0, _BIG, _BIG, _BIG])


def test_fits_never_call_scipy_nelder_mead(monkeypatch):
    minimize = optimize.minimize

    def guarded(fun, x0, method=None, **kwargs):
        assert method != "Nelder-Mead"
        return minimize(fun, x0, method=method, **kwargs)

    monkeypatch.setattr(optimize, "minimize", guarded)
    (ctx,) = _ctxs("ou", 100, 1)
    mqle(ctx)
    initial_beta(ctx)
    adaptive_estimate(ctx)


# --- the fits against a reference that runs scipy's Nelder-Mead per start ---

def _reference_box(f, starts, lower, upper, opts):
    """Nelder-Mead by scipy from each start, then the fit's polish, its FD
    gradient evaluated one stencil point at a time."""
    maxfev = 200 * lower.size
    f_safe = _safe(f)

    def scalar_rows(_rows, points):
        return np.array([f_safe(v) for v in points])

    results = _scipy_rows([f_safe] * len(starts), starts, lower, upper, maxfev)
    # scipy runs with the fit's own tolerances
    assert (_NM_XATOL, _NM_FATOL) == (XATOL, FATOL)
    search = (np.array([r.x for r in results]), np.array([r.fun for r in results]),
              np.array([r.nit for r in results]))
    return _polish(f, scalar_rows, search, lower, upper, opts)


def _reference_mqle(ctx, opts=FitOptions()):
    model = ctx.model
    box = model.box
    starts = _start_points(box.lower, box.upper, opts.n_starts, extra=_heuristic_start(ctx))
    x, fun, conv, iters, restarts, at_b = _reference_box(
        _objective(ctx, ql_total), starts, box.lower, box.upper, opts)
    return FitResult(ParamVector.from_full(box.clip(x), model.m1, model.m2), fun, conv,
                     iters, restarts, at_b)


def _reference_initial_beta(ctx, opts=FitOptions()):
    model = ctx.model
    m1 = model.m1
    box = model.box
    lower, upper = box.lower[m1:], box.upper[m1:]
    path = ctx.path
    dx2 = np.diff(path.values) ** 2
    xprev = path.values[:-1]
    alpha_c = box.center()[:m1]

    def u_n(bv):
        c = np.asarray(model.diffsq(ParamVector(alpha_c, bv), xprev), dtype=float)
        if np.any(c <= 0):
            return _BIG
        return 0.5 * float(np.sum(dx2 / (path.delta * c) + np.log(c)))

    starts = _start_points(lower, upper, max(4, opts.n_starts // 2))
    x, fun, conv, iters, restarts, at_b = _reference_box(u_n, starts, lower, upper, opts)
    return FitResult(ParamVector(alpha_c, np.clip(x, lower, upper)), fun, conv, iters,
                     restarts, at_b)


def _reference_adaptive(ctx, opts=FitOptions()):
    model = ctx.model
    m1 = model.m1
    box = model.box
    beta0 = _reference_initial_beta(ctx, opts).theta_hat.beta
    lower_a, upper_a = box.lower[:m1], box.upper[:m1]
    starts_a = _start_points(lower_a, upper_a, max(4, opts.n_starts // 2))
    xa, _, conv_a, it_a, rs_a, bd_a = _reference_box(
        lambda av: ql_total(ctx, ParamVector(av, beta0)), starts_a, lower_a, upper_a, opts)
    alpha1 = np.clip(xa, lower_a, upper_a)
    lower_b, upper_b = box.lower[m1:], box.upper[m1:]
    starts_b = _start_points(lower_b, upper_b, max(4, opts.n_starts // 2), extra=beta0)
    xb, fb, conv_b, it_b, rs_b, bd_b = _reference_box(
        lambda bv: ql_total(ctx, ParamVector(alpha1, bv)), starts_b, lower_b, upper_b, opts)
    return FitResult(ParamVector(alpha1, np.clip(xb, lower_b, upper_b)), float(fb),
                     bool(conv_a and conv_b), it_a + it_b, rs_a + rs_b, bool(bd_a or bd_b),
                     adaptive=True)


def _assert_fits_equal(fit, ref):
    assert np.array_equal(fit.theta_hat.alpha, ref.theta_hat.alpha)
    assert np.array_equal(fit.theta_hat.beta, ref.theta_hat.beta)
    assert (fit.objective, fit.converged, fit.iterations, fit.restarts_used,
            fit.at_boundary, fit.adaptive) == (
        ref.objective, ref.converged, ref.iterations, ref.restarts_used,
        ref.at_boundary, ref.adaptive)


_CHEAP = FitOptions(n_starts=2, polish_top=1)


@pytest.mark.parametrize("model_id", ["ou", "cir"])
@pytest.mark.parametrize("n", [100, 1000])
def test_fits_equal_scipy_reference(model_id, n):
    for ctx in _ctxs(model_id, n, 2, seed=40 + n):
        _assert_fits_equal(mqle(ctx), _reference_mqle(ctx))
        _assert_fits_equal(mqle(ctx, _CHEAP), _reference_mqle(ctx, _CHEAP))
        _assert_fits_equal(initial_beta(ctx), _reference_initial_beta(ctx))
        _assert_fits_equal(adaptive_estimate(ctx), _reference_adaptive(ctx))


@pytest.mark.parametrize("model_id", ["ou", "cir"])
def test_block_search_equals_single_fits(model_id):
    # the harness searches a block of paths at once, then polishes each path
    ctxs = _ctxs(model_id, 100, 7, seed=90)
    for ctx, search in zip(ctxs, mqle_search(ctxs, _CHEAP)):
        _assert_fits_equal(mqle(ctx, _CHEAP, search=search), mqle(ctx, _CHEAP))

