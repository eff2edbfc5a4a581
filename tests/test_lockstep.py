"""The lockstep Nelder-Mead search and L-BFGS-B polish against scipy.

``estimate._nelder_mead`` runs many bounded Nelder-Mead searches as rows of
one array program, and ``estimate._lbfgsb`` many bounded L-BFGS-B runs.
Each row must take exactly the steps of ``scipy.optimize.minimize`` with
``method="Nelder-Mead"`` or ``method="L-BFGS-B"`` from the same start on
the same objective, so every row's x, fun and nit must be equal, not merely
close, and the polish must evaluate the objective at the same points.  The
fits built on them must equal a reference fit, kept here and in
``oracles.reference_polish``, that runs scipy's Nelder-Mead once per start
and scipy's L-BFGS-B once per polished candidate.
"""

import dataclasses

import numpy as np
import pytest
from scipy import optimize
from scipy.stats import qmc

from qltest import (
    FitOptions,
    FitResult,
    ParamVector,
    QLContext,
    SimConfig,
    adaptive_estimate,
    euler_maruyama,
    initial_beta,
    local_alternative,
    make_model,
    mqle,
    observation_schedule,
    ql_total,
)
from qltest import SamplePath, estimate
from qltest.errors import EstimationError
from qltest.estimate import (
    _BIG,
    _NM_FATOL,
    _NM_XATOL,
    _SOBOL_SEED,
    _guarded,
    _heuristic_start,
    _lbfgsb,
    _nelder_mead,
    _polish_bounds,
    _safe,
    _search_and_polish,
    _start_points,
    mqle_search,
)
from qltest.quasilik import _CHUNK_VALUES, _ql_rows, _row_gradients, _split, fd_gradient

from oracles import objective, reference_polish, scipy_lbfgsb

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
    """Row r of a lockstep run equals scipy's run r: x, fun, nit and, for
    the polish, the final gradient that scipy reports as ``jac``."""
    x, fun, nit, *jac = lockstep
    assert x.shape[0] == len(results)
    for r, res in enumerate(results):
        assert np.array_equal(x[r], res.x), r
        assert np.array_equal(fun[r], res.fun), r
        assert nit[r] == res.nit, r
        if jac:
            assert np.array_equal(jac[0][r], res.jac), r


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
    ql_rows = _guarded(_ql_rows(ctxs, _split(m1)))
    objectives = [_safe(objective(ctxs[i])) for i in row_ctx]

    def f_rows(rows, points):  # row r on the path of its start, ctxs[row_ctx[r]]
        return ql_rows(row_ctx[rows], points)

    return f_rows, np.array(starts), objectives, box


def test_sobol_fill_is_a_fresh_draw():
    # the draws are kept per (d, m), read-only, and equal a fresh sequence's
    for d, m in ((1, 1), (1, 2), (2, 2), (3, 3)):
        cached = estimate._sobol_points(d, m)
        fresh = qmc.Sobol(d=d, scramble=True, seed=_SOBOL_SEED).random_base2(m)
        assert cached.shape == fresh.shape and cached.tobytes() == fresh.tobytes()
        assert not cached.flags.writeable
        assert estimate._sobol_points(d, m) is cached
    lower, upper = np.full(3, 0.01), np.full(3, 5.0)
    for extra in (None, [1.0, 1.0, 1.0]):
        starts = _start_points(lower, upper, 8, extra=extra)
        fill = 7 if extra is None else 6
        pts = qmc.Sobol(d=3, scramble=True, seed=_SOBOL_SEED).random_base2(3)[:fill]
        inset_lo, inset_hi = lower + 0.05 * (upper - lower), upper - 0.05 * (upper - lower)
        expected = inset_lo + pts * (inset_hi - inset_lo)
        assert np.array(starts[8 - fill:]).tobytes() == expected.tobytes()


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
    lockstep = _nelder_mead(f_rows, starts, box.lower, box.upper, maxfev)
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
    lockstep = _nelder_mead(f_rows, starts, box.lower, box.upper, 600)
    _assert_rows_equal(lockstep, _scipy_rows(objectives, starts, box.lower, box.upper, 600))


@pytest.mark.parametrize("problem", ["ou", "cir", "staircase"])
def test_small_budgets_stop_rows_mid_iteration(problem):
    if problem == "staircase":
        f_rows, starts, objectives, box = _staircase_problem()
    else:
        f_rows, starts, objectives, box = _full_problem(_ctxs(problem, 100, 12, seed=3), 4)
    in_expansion = in_shrink = 0
    for maxfev in (7, 13, 29):
        lockstep = _nelder_mead(f_rows, starts, box.lower, box.upper, maxfev)
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


def _adversarial(f_rows, scale, seed):
    """An evaluator that claims a bound of up to scale * (1 + |f|) on each
    value and returns f_rows's value moved by noise inside that bound; a
    tenth of its values are f_rows's, claimed with bound 0."""
    rng = np.random.default_rng(seed)

    def approx(rows, points):
        exact = f_rows(rows, points)
        bound = scale * (1.0 + np.abs(exact)) * rng.random(exact.size)
        bound[rng.random(exact.size) < 0.1] = 0.0
        value = exact + bound * rng.uniform(-1.0, 1.0, exact.size)
        # the sum rounds by at most half a spacing of the value
        return value, np.where(bound > 0, bound + np.spacing(np.abs(value)), 0.0)

    return approx


def _big_problem():
    """OU rows on a drift that is NaN where a1 > 4: the objective reads
    _BIG there, and a third of the starts lie in that region."""
    model = dataclasses.replace(make_model("ou"), drift=_drift_nan_above_four)
    ctxs = [QLContext(model, ctx.path) for ctx in _ctxs("ou", 100, 6, seed=40)]
    outside = [(i, [4.6 - 0.1 * (i % 3), 0.5 + 0.2 * i, 0.3]) for i in range(6)]
    return _full_problem(ctxs, 2, extra_starts=outside)


@pytest.mark.parametrize("scale", [1e-6, 1e-12])
@pytest.mark.parametrize("maxfev", [7, 29, 600])
@pytest.mark.parametrize("problem", ["ou", "cir", "staircase", "big"])
def test_search_on_an_adversarial_evaluator_equals_the_exact_search(problem, maxfev, scale):
    # the certified search decides on the evaluator's values only where
    # their bounds separate them, so any values inside the claimed bounds
    # give the search on f_rows alone, row for row
    if problem == "staircase":
        f_rows, starts, _, box = _staircase_problem()
    elif problem == "big":
        f_rows, starts, _, box = _big_problem()
    else:
        f_rows, starts, _, box = _full_problem(_ctxs(problem, 100, 12, seed=5), 4)
    calls = []

    def counted(rows, points):
        calls.append(len(rows))
        return f_rows(rows, points)

    exact = _nelder_mead(counted, starts, box.lower, box.upper, maxfev)
    evaluations, calls[:] = sum(calls), []
    certified = _nelder_mead(counted, starts, box.lower, box.upper, maxfev,
                             approx=_adversarial(f_rows, scale, seed=maxfev))
    for a, b in zip(exact, certified):
        assert a.tobytes() == b.tobytes()
    if maxfev == 600:
        # some decisions were settled on f_rows, and not all of them
        assert 0 < sum(calls) < evaluations
    if problem == "big":
        assert np.any(exact[1] == _BIG) or maxfev == 600


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
    lockstep = _nelder_mead(f_rows, starts, lower, upper, 200)
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
    f_rows = _ql_rows(ctxs, lambda bv: ParamVector._wrap(alpha, bv))
    rows = f_rows(row_ctx, np.tile(betas, len(ctxs))[:, None])
    scalar = [ql_total(ctx, ParamVector(alpha, [b])) for ctx in ctxs for b in betas]
    assert np.array_equal(rows, scalar)


def test_row_objective_reads_non_finite_as_big():
    f_rows = _guarded(lambda rows, points: np.array([1.0, np.nan, np.inf, -np.inf])[rows])
    out = f_rows(np.arange(4), np.zeros((4, 3)))
    assert np.array_equal(out, [1.0, _BIG, _BIG, _BIG])


def test_fits_never_call_scipy_minimize(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a fit called scipy.optimize.minimize")

    monkeypatch.setattr(optimize, "minimize", forbidden)
    monkeypatch.setattr(optimize._lbfgsb_py, "_minimize_lbfgsb", forbidden)
    ctxs = _ctxs("ou", 100, 3)
    mqle(ctxs[0])
    initial_beta(ctxs[0])
    adaptive_estimate(ctxs[0])
    for ctx, entry in zip(ctxs, mqle_search(ctxs, _CHEAP)):
        mqle(ctx, _CHEAP, polished=entry)


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

def _points(f, seen):
    """f, appending each point it is called at to ``seen``."""
    def g(v):
        seen.append(np.array(v, dtype=float))
        return f(v)

    return g


def _reference_box(f, starts, lower, upper, opts, polish_points=None):
    """Nelder-Mead by scipy from each start, then L-BFGS-B by scipy from each
    polished candidate, its FD gradient evaluated one stencil point at a
    time.  The points of the polish's scalar objective calls are appended
    to ``polish_points``, when given."""
    maxfev = 200 * lower.size
    f_safe = _safe(f)

    def scalar_rows(_rows, points):
        return np.array([f_safe(v) for v in points])

    results = _scipy_rows([f_safe] * len(starts), starts, lower, upper, maxfev)
    # scipy runs with the fit's own tolerances
    assert (_NM_XATOL, _NM_FATOL) == (XATOL, FATOL)
    search = (np.array([r.x for r in results]), np.array([r.fun for r in results]),
              np.array([r.nit for r in results]))
    if polish_points is not None:
        f = _points(f, polish_points)
    return reference_polish(f, scalar_rows, search, lower, upper, opts)


def _reference_mqle(ctx, opts=FitOptions(), polish_points=None):
    model = ctx.model
    box = model.box
    starts = _start_points(box.lower, box.upper, opts.n_starts, extra=_heuristic_start(ctx))
    x, fun, conv, iters, restarts, at_b = _reference_box(
        objective(ctx), starts, box.lower, box.upper, opts, polish_points)
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


def test_references_run_without_the_box_fit(monkeypatch):
    # the references share no code with the fits' one block search and
    # polish or its lockstep polish, so the comparison above does not check
    # that routine against itself
    def forbidden(*args, **kwargs):
        raise AssertionError("a reference called the fits' box-fit code")

    for name in ("_box_fit", "_search_and_polish", "_lbfgsb"):
        monkeypatch.setattr(estimate, name, forbidden)
    (ctx,) = _ctxs("ou", 100, 1)
    _reference_mqle(ctx, _CHEAP)
    _reference_adaptive(ctx, _CHEAP)
    with pytest.raises(AssertionError, match="box-fit code"):
        mqle(ctx, _CHEAP)


@pytest.mark.parametrize("model_id", ["ou", "cir"])
def test_block_search_equals_single_fits(model_id):
    # the harness fits a block of paths at once: one search and one polish
    ctxs = _ctxs(model_id, 100, 7, seed=90)
    for ctx, entry in zip(ctxs, mqle_search(ctxs, _CHEAP)):
        _assert_fits_equal(mqle(ctx, _CHEAP, polished=entry), mqle(ctx, _CHEAP))
    for ctx, entry in zip(ctxs, mqle_search(ctxs)):
        _assert_fits_equal(mqle(ctx, polished=entry), _reference_mqle(ctx))



@pytest.mark.parametrize("model_id, n, h_grid, reps", [
    ("ou", 100, (0.0, 0.5, 1.0), 15),
    ("cir", 1000, (0.0, 0.2), 10),
])
def test_table_search_equals_per_cell_searches(model_id, n, h_grid, reps):
    # a power table searches the paths of all its cells at once; the search
    # runs until its slowest row stops, which must not move any other row
    model = make_model(model_id)
    delta = observation_schedule(n)[1]
    cells = []
    for h in h_grid:
        theta = local_alternative(THETA0[model_id], h, n, delta, model.box)
        paths = euler_maruyama(model, theta, SimConfig(n=n, delta=delta, x0=1.0, seed=0),
                               range(100, 100 + reps))
        cells.append([QLContext(model, path) for path in paths])
    table = mqle_search([ctx for cell in cells for ctx in cell], _CHEAP)
    per_cell = [fit for cell in cells for fit in mqle_search(cell, _CHEAP)]
    assert len(table) == len(per_cell) == len(h_grid) * reps
    for fit, ref in zip(table, per_cell):
        _assert_fits_equal(fit, ref)


def _drift_nan_above_four(theta, x):
    """The OU drift, NaN where a1 > 4."""
    a1, a2 = theta.alpha[0], theta.alpha[1]
    return np.where(a1 > 4.0, np.nan, a1 * (a2 - x))


@pytest.mark.parametrize("finite", [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
def test_block_with_ragged_candidate_counts_equals_blocks_of_one(finite):
    # the paths of one block have 2, 1 and 0 finite starts, so their polish
    # rows are uneven and one path has none; each path's entry, its fit or
    # its error, must be that of its own block of one
    model = dataclasses.replace(make_model("ou"), drift=_drift_nan_above_four)
    ctxs = [QLContext(model, ctx.path) for ctx in _ctxs("ou", 100, 3, seed=60)]
    box = model.box
    inside = [[1.0, 0.5, 0.3], [2.0, 1.5, 0.2]]
    # simplices that start above a1 = 4 stay there, every value non-finite
    outside = [[4.6, 0.5, 0.3], [4.7, 2.0, 0.25], [4.5, 1.0, 0.4]]
    starts = [np.array(inside[:k] + outside[: 3 - k]) for k in finite]
    opts = FitOptions(polish_top=2)
    block = _search_and_polish(ctxs, _split(model.m1), box.lower, box.upper, starts, opts)
    for k, ctx, path_starts, entry in zip(finite, ctxs, starts, block):
        (alone,) = _search_and_polish([ctx], _split(model.m1), box.lower, box.upper,
                                      [path_starts], opts)
        if k == 0:
            assert isinstance(entry, EstimationError) and isinstance(alone, EstimationError)
            assert (str(entry), entry.diagnostics) == (str(alone), alone.diagnostics)
            assert len(entry.diagnostics) == 3
            continue
        _assert_fits_equal(entry, alone)
        assert entry.objective < _BIG


# --- the lockstep L-BFGS-B polish against scipy's, one run per row ---

def _polish_rows(model_id, n, paths, seed):
    """Polish rows as the fits start them: each path's searched starts and
    its raw starts, clipped into the inset bounds, and three rows that
    start on the inset bounds.

    Returns the rows' path indices, starts, contexts and bounds.
    """
    ctxs = _ctxs(model_id, n, paths, seed=seed)
    f_rows, starts, _, box = _full_problem(ctxs, 2)
    searched, _, _ = _nelder_mead(f_rows, starts, box.lower, box.upper, 200 * box.dim)
    plo, phi = _polish_bounds(box.lower, box.upper)
    on_bounds = np.array([plo, phi, np.where([True, False, True], phi, searched[0])])
    path_of = np.repeat(np.arange(paths), 2)
    row_path = np.concatenate([path_of, path_of, [0, 1, 0]])
    x0 = np.clip(np.vstack([searched, starts, on_bounds]), plo, phi)
    return row_path, x0, ctxs, plo, phi


def _lockstep_and_scipy(model_id, n, paths, seed, maxiter):
    row_path, x0, ctxs, plo, phi = _polish_rows(model_id, n, paths, seed)
    ql_rows = _guarded(_ql_rows(ctxs, _split(ctxs[0].model.m1)))
    objectives = [_safe(objective(ctxs[p])) for p in row_path]
    calls = [[] for _ in row_path]

    def fun(r, v):
        calls[r].append(np.array(v))
        return objectives[r](v)

    lockstep = _lbfgsb(
        fun, lambda rows, points: _row_gradients(ql_rows, row_path[rows], points),
        x0, plo, phi, maxiter)
    ref_calls = [[] for _ in row_path]
    results = [
        scipy_lbfgsb(_points(f, seen), lambda v, f=f: fd_gradient(f, v), start, plo, phi,
                     maxiter)
        for f, seen, start in zip(objectives, ref_calls, x0)
    ]
    return lockstep, results, calls, ref_calls


def _assert_calls_equal(calls, ref_calls):
    for r, (got, ref) in enumerate(zip(calls, ref_calls)):
        assert len(got) == len(ref), r
        assert all(np.array_equal(a, b) for a, b in zip(got, ref)), r


@pytest.mark.parametrize("model_id", ["ou", "cir"])
@pytest.mark.parametrize("n, paths", [(100, 6), (1000, 3)])
def test_lbfgsb_rows_equal_scipy(model_id, n, paths):
    lockstep, results, calls, ref_calls = _lockstep_and_scipy(
        model_id, n, paths, seed=200 + n, maxiter=estimate._POLISH_MAXITER)
    _assert_rows_equal(lockstep, results)
    _assert_calls_equal(calls, ref_calls)
    # the raw starts take many iterations, the searched ones few
    assert lockstep[2].max() > 5 * max(1, lockstep[2][: 2 * paths].min())


@pytest.mark.parametrize("maxiter", [1, 2, 3])
def test_lbfgsb_iteration_cap_stops_rows_mid_block(maxiter):
    lockstep, results, calls, ref_calls = _lockstep_and_scipy("ou", 100, 6, 7, maxiter)
    _assert_rows_equal(lockstep, results)
    _assert_calls_equal(calls, ref_calls)
    nit = lockstep[2]
    capped = nit == maxiter
    # rows reach the cap after different numbers of evaluations, so some
    # stop while others still run
    assert capped.any()
    assert len({len(calls[r]) for r in np.flatnonzero(capped)}) > 1
    assert all(res.message.endswith("ITERATIONS REACHED LIMIT") for res in
               np.array(results, dtype=object)[capped])


@pytest.mark.parametrize("model_id, n", [("ou", 100), ("cir", 1000)])
def test_block_polish_calls_ql_total_where_scipy_does(model_id, n, monkeypatch):
    ctxs = _ctxs(model_id, n, 4, seed=300)
    seen = {id(ctx): [] for ctx in ctxs}

    def recording(ctx, theta):
        seen[id(ctx)].append(np.array(theta.full))
        return ql_total(ctx, theta)

    monkeypatch.setattr(estimate, "ql_total", recording)
    polished = mqle_search(ctxs, _CHEAP)
    monkeypatch.undo()
    for ctx, entry in zip(ctxs, polished):
        ref_points = []
        ref = _reference_mqle(ctx, _CHEAP, polish_points=ref_points)
        _assert_fits_equal(mqle(ctx, _CHEAP, polished=entry), ref)
        _assert_calls_equal([seen[id(ctx)]], [ref_points])


def test_a_path_whose_starts_all_fail_gets_its_own_error():
    ctxs = _ctxs("ou", 100, 5, seed=70)
    # transitions of +-2e200: every term overflows at every parameter
    wild = np.where(np.arange(101) % 2 == 0, -1e200, 1e200)
    ctxs[2] = QLContext(ctxs[2].model, SamplePath(ctxs[2].path.delta, wild))
    polished = mqle_search(ctxs, _CHEAP)
    assert isinstance(polished[2], EstimationError)
    for fit in (lambda: mqle(ctxs[2], _CHEAP, polished=polished[2]),
                lambda: mqle(ctxs[2], _CHEAP)):
        with pytest.raises(EstimationError, match="all optimizer starts failed"):
            fit()
    for k in (0, 1, 3, 4):
        _assert_fits_equal(mqle(ctxs[k], _CHEAP, polished=polished[k]),
                           _reference_mqle(ctxs[k], _CHEAP))
