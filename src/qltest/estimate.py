"""Maximum quasi-likelihood estimation over the compact parameter box.

Every fit is of a flat vector v over a box, theta being theta_of(v), and
fits a block of paths at once (``_search_and_polish``), in three stages.
First a bounded Nelder-Mead search runs from several deterministic starts of
every path as rows of one lockstep search that takes, row for row, exactly
the steps of scipy's per-start ``minimize(method="Nelder-Mead")``.  Then the
best searched starts of every path are polished by L-BFGS-B in lockstep
(``_lbfgsb``), each taking exactly the steps of scipy's per-candidate
``minimize(method="L-BFGS-B")`` on the scalar ql_total, the finite-difference
gradients of a round one row call.  Last, each path's fit is its best
polished candidate, with its boundary flag and its gradient test, both read
from what the polish ended on: its point and its final FD gradient.  ``mqle``
fits theta whole, as a block of one or as its path's entry of
``mqle_search``; ``adaptive_estimate`` fits beta alone (``initial_beta``,
the quasi-likelihood fit of the drift-free model, whose terms are the plain
local-Gaussian contrast), then one alpha-step and one beta-step.  Every
objective is ql_total; every fit refuses a path of fewer than m1 + m2 + 2
observations and raises ``DomainError`` where c <= 0.  The starts are the
box center, the heuristic start and a scrambled-Sobol fill; scipy's Sobol
engine (scipy.stats) loads at the first fill that needs it, never at import.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import _lbfgsb as _lbfgsb_mod

from .errors import EstimationError, _check_count
from .models import ParamVector
from .quasilik import QLContext, _drift_free, _ql_rows, _row_gradients, _split, ql_total

__all__ = ["FitOptions", "FitResult", "mqle", "initial_beta", "adaptive_estimate"]

_BIG = 1e300
_SOBOL_SEED = 20200517  # fixed so multi-start points are reproducible

# scipy's non-adaptive Nelder-Mead coefficients and initial-simplex steps
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025

# Nelder-Mead tolerances on x and f
_NM_XATOL, _NM_FATOL = 1e-4, 1e-8

# L-BFGS-B polish: iteration cap, relative objective tolerance and
# projected-gradient tolerance; a fit converged when the largest entry of
# the polish's final FD gradient is <= _GRAD_TOL * (1 + |f|)
_POLISH_MAXITER = 500
_OBJ_REL_TOL = 1e-10
_PGTOL = 1e-9
_GRAD_TOL = 1e-6

# scipy 1.17's L-BFGS-B defaults: corrections kept, line-search steps per
# iteration and evaluation budget; and the ``setulb`` task codes it reads
_LBFGSB_M, _LBFGSB_MAXLS, _LBFGSB_MAXFUN = 10, 20, 15000
_NEW_X, _FG, _STOP = 1, 3, 5


@dataclass(frozen=True)
class FitOptions:
    """n_starts: the Nelder-Mead starts of ``mqle``; a fit of one parameter
    block (``initial_beta``, each adaptive step) takes half as many, at least 4.
    polish_top: how many of the best searched starts L-BFGS-B polishes.
    Both are integers >= 1, or construction raises ConfigError.
    """

    n_starts: int = 8
    polish_top: int = 2

    def __post_init__(self):
        _check_count("n_starts", self.n_starts, 1)
        _check_count("polish_top", self.polish_top, 1)


@dataclass(frozen=True)
class FitResult:
    """theta_hat: the estimate, in the box; objective: ql_total there (of
    the drift-free model for ``initial_beta``, which is U_n).
    converged: the largest entry of the polish's final central-difference
    gradient, taken at theta_hat, is at most 1e-6 * (1 + |objective|), and
    theta_hat is not at the boundary.  L-BFGS-B often stops first, on its
    1e-10 relative objective tolerance.
    iterations: the Nelder-Mead iterations of every start plus the L-BFGS-B
    iterations of every polished one; restarts_used: the number of starts.
    at_boundary: theta_hat is on the polish's bounds, which are inset from
    the box by 3e-5 * max(1, |bound|).
    adaptive: the fit of ``adaptive_estimate``: the beta-step's objective,
    converged if both steps are, at the boundary if either is, counts added.
    """

    theta_hat: ParamVector
    objective: float
    converged: bool
    iterations: int
    restarts_used: int
    at_boundary: bool = False
    adaptive: bool = False


def _safe(f):
    """f with a non-finite value or a floating-point error read as _BIG.

    Any other exception is a bug, or a model contract violated, and
    propagates.
    """

    def wrapped(v):
        try:
            val = f(v)
        except FloatingPointError:
            return _BIG
        if not np.isfinite(val):
            return _BIG
        return val

    return wrapped


def _start_points(lower, upper, n_starts, extra=None):
    """Box center, optional heuristic start, then scrambled-Sobol fill."""
    span = upper - lower
    inset_lo = lower + 0.05 * span
    inset_hi = upper - 0.05 * span
    starts = [0.5 * (lower + upper)]
    if extra is not None:
        starts.append(np.clip(np.asarray(extra, dtype=float), inset_lo, inset_hi))
    need = max(0, n_starts - len(starts))
    if need:
        pts = _sobol_points(lower.size, max(1, math.ceil(math.log2(need))))[:need]
        starts.extend(inset_lo + pts * (inset_hi - inset_lo))
    return starts[:n_starts]


@functools.cache
def _sobol_points(d, m):
    """The first 2**m points of the fixed scrambled Sobol sequence in d
    dimensions, drawn once per (d, m) and kept read-only.

    scipy.stats, whose import costs about 0.5 s and 22 MB, loads here, at
    the first Sobol fill: a fit of at most two starts never draws one, so a
    power study (two starts a fit) does not load it at all.
    """
    from scipy.stats import qmc

    pts = qmc.Sobol(d=d, scramble=True, seed=_SOBOL_SEED).random_base2(m)
    pts.flags.writeable = False
    return pts


def _guarded(f_rows):
    """The row evaluator ``f_rows`` as the search and the polish read it.

    Floating-point errors are ignored and a non-finite value reads as _BIG,
    which gives, row for row, the values of ``_safe`` on the scalar
    objective; nothing raised is caught.
    """

    def f(rows, points):
        with np.errstate(all="ignore"):
            out = f_rows(rows, points)
        out[~np.isfinite(out)] = _BIG
        return out

    return f


def _nelder_mead(f_rows, x0, lower, upper, maxfev):
    """Bounded Nelder-Mead from every row of ``x0`` (shape (R, d)) in lockstep.

    Row r takes exactly the steps of scipy 1.17's ``minimize(f, x0[r],
    method="Nelder-Mead", bounds=..., options=dict(xatol=_NM_XATOL,
    fatol=_NM_FATOL, maxiter=maxfev, maxfev=maxfev))``: the same initial simplex,
    trial points, comparisons, sorts and evaluation budget.  A row whose
    budget runs out inside an iteration keeps that iteration's partial state
    and does not count it, as scipy does.  ``f_rows(rows, points)`` returns
    the objective of each listed row at its point; each phase of an
    iteration evaluates every row that needs it in one call.

    Returns (x, fun, nit), one entry per row.
    """
    n_rows, dim = x0.shape

    def clip(points):  # the values of np.clip, at a fraction of its call cost
        return np.minimum(np.maximum(points, lower), upper)

    x0 = clip(x0)
    sim = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        y = x0[:, k]
        sim[:, k + 1, k] = np.where(y != 0, (1 + _NONZDELT) * y, _ZDELT)
    # a vertex above the upper bound is reflected into the box, then clipped
    sim = clip(np.where(sim > upper, 2 * upper - sim, sim))
    fsim = np.full((n_rows, dim + 1), np.inf)
    fcalls = np.zeros(n_rows, dtype=int)
    nit = np.ones(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)

    def call(rows, points):
        fcalls[rows] += 1
        return f_rows(rows, points)

    def sort(s, fs):
        order = np.argsort(fs, axis=1)
        r = np.arange(fs.shape[0])[:, None]
        return s[r, order], fs[r, order]

    everyone = np.arange(n_rows)
    for k in range(dim + 1):
        rows = everyone[fcalls < maxfev]
        if rows.size:
            fsim[rows, k] = call(rows, sim[rows, k])
    # scipy sorts twice before the first iteration
    sim, fsim = sort(*sort(sim, fsim))

    while True:
        live = np.flatnonzero(~converged & (fcalls < maxfev) & (nit < maxfev))
        s, fs = sim[live], fsim[live]
        done = (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= _NM_XATOL) & (
            np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= _NM_FATOL
        )
        if done.any():
            converged[live[done]] = True
            live, s, fs = live[~done], s[~done], fs[~done]
        if not live.size:
            break

        xbar = np.add.reduce(s[:, :-1], axis=1) / dim
        worst = s[:, -1]
        xr = clip((1 + _RHO) * xbar - _RHO * worst)
        fxr = call(live, xr)
        expand = fxr < fs[:, 0]
        accept = ~expand & (fxr < fs[:, -2])
        contract = ~expand & ~accept
        outside = contract & (fxr < fs[:, -1])
        # scipy checks the budget before each call: out of it, the row stops here
        stopped = (expand | contract) & (fcalls[live] >= maxfev)
        expand &= ~stopped
        contract &= ~stopped
        new_x, new_f = xr.copy(), fxr.copy()
        shrink = np.zeros_like(contract)

        if expand.any():
            xe = clip((1 + _RHO * _CHI) * xbar[expand] - _RHO * _CHI * worst[expand])
            fxe = call(live[expand], xe)
            better = fxe < fxr[expand]
            new_x[expand] = np.where(better[:, None], xe, xr[expand])
            new_f[expand] = np.where(better, fxe, fxr[expand])
        if contract.any():
            out = outside[contract]
            xb, xw = xbar[contract], worst[contract]
            xc = np.where(
                out[:, None],
                clip((1 + _PSI * _RHO) * xb - _PSI * _RHO * xw),
                clip((1 - _PSI) * xb + _PSI * xw),
            )
            fxc = call(live[contract], xc)
            kept = np.where(out, fxc <= fxr[contract], fxc < fs[contract, -1])
            new_x[contract] = xc
            new_f[contract] = fxc
            shrink[contract] = ~kept
        replace = expand | accept | (contract & ~shrink)
        s[replace, -1] = new_x[replace]
        fs[replace, -1] = new_f[replace]

        at = np.flatnonzero(shrink)
        for j in range(1, dim + 1):
            if not at.size:
                break
            s[at, j] = clip(s[at, 0] + _SIGMA * (s[at, j] - s[at, 0]))
            funded = fcalls[live[at]] < maxfev
            stopped[at[~funded]] = True
            at = at[funded]
            if at.size:
                fs[at, j] = call(live[at], s[at, j])

        nit[live[~stopped]] += 1
        sim[live], fsim[live] = sort(s, fs)

    return sim[:, 0].copy(), fsim.min(axis=1), nit


def _lbfgsb(fun, grad, x0, lower, upper, maxiter=_POLISH_MAXITER):
    """Bounded L-BFGS-B from every row of ``x0`` (shape (R, d)) in lockstep.

    Row r takes exactly the steps of scipy 1.17's ``minimize(f_r, x0[r],
    method="L-BFGS-B", jac=..., bounds=..., options=dict(maxiter=maxiter,
    ftol=_OBJ_REL_TOL, gtol=_PGTOL))``: it keeps its own state of scipy's
    reverse-communication routine ``setulb`` and is driven by the loop of
    ``_minimize_lbfgsb``, its budgets included.  As scipy's ``ScalarFunction``
    does, the objective is evaluated first at the clipped start and never
    again at the point it was last evaluated at.  ``fun(r, x)`` is row r's
    scalar objective; ``grad(rows, points)`` returns the (k, d) gradients of
    the listed rows, one call per round for every row that asked for one.

    Returns (x, fun, nit, jac), one entry per row; fun and jac are the last
    value and gradient handed to ``setulb``, which is what scipy reports:
    the objective and gradient at x, also for a row stopped by a budget.
    """
    n_rows, dim = x0.shape
    m = _LBFGSB_M
    factr = _OBJ_REL_TOL / np.finfo(float).eps
    nbd = np.full(dim, 2, dtype=np.int32)  # every coordinate bounded on both sides
    x = np.clip(x0, lower, upper)
    wa = np.zeros((n_rows, 2 * m * dim + 5 * dim + 11 * m * m + 8 * m))
    iwa = np.zeros((n_rows, 3 * dim), dtype=np.int32)
    task = np.zeros((n_rows, 2), dtype=np.int32)
    ln_task = np.zeros((n_rows, 2), dtype=np.int32)
    lsave = np.zeros((n_rows, 4), dtype=np.int32)
    isave = np.zeros((n_rows, 44), dtype=np.int32)
    dsave = np.zeros((n_rows, 29))

    # the point each row last evaluated at, and its value and gradient
    seen = x.copy()
    f_seen = [fun(r, seen[r]) for r in range(n_rows)]
    g_seen = grad(np.arange(n_rows), seen)
    nfev = np.ones(n_rows, dtype=int)
    f = [0.0] * n_rows
    g = np.zeros((n_rows, dim))
    nit = np.zeros(n_rows, dtype=int)

    live = range(n_rows)
    while live:
        asked, fresh, kept = [], [], []
        for r in live:
            _lbfgsb_mod.setulb(m, x[r], lower, upper, nbd, f[r], g[r], factr, _PGTOL,
                               wa[r], iwa[r], task[r], lsave[r], isave[r], dsave[r],
                               _LBFGSB_MAXLS, ln_task[r])
            if task[r, 0] == _FG:
                asked.append(r)
                if not np.array_equal(x[r], seen[r]):
                    seen[r] = x[r]
                    f_seen[r] = fun(r, seen[r])
                    nfev[r] += 1
                    fresh.append(r)
            elif task[r, 0] == _NEW_X:
                nit[r] += 1
                if nit[r] >= maxiter:
                    task[r] = _STOP, 504
                elif nfev[r] > _LBFGSB_MAXFUN:
                    task[r] = _STOP, 502
            else:
                continue
            kept.append(r)
        if fresh:
            g_seen[fresh] = grad(np.array(fresh), seen[fresh])
        for r in asked:
            f[r] = f_seen[r]
            g[r] = g_seen[r]
        live = kept
    return x, np.array(f), nit, g


def _polish_bounds(lower, upper):
    """The polish's bounds, inset from the box so that the FD gradient of
    every polished point lies in it."""
    inset = 3e-5 * np.maximum(1.0, np.maximum(np.abs(lower), np.abs(upper)))
    return lower + inset, upper - inset


def _heuristic_start(ctx: QLContext):
    """Box center for alpha, quadratic-variation scale for beta (m2 = 1)."""
    box = ctx.model.box
    m1, m2 = ctx.model.m1, ctx.model.m2
    center = box.center()
    if m2 != 1:
        return None
    path = ctx.path
    xprev = path.values[:-1]
    theta_c = ParamVector.from_full(center, m1, m2)
    # match mean(c) to the quadratic variation by rescaling the unit-beta c;
    # on a path of huge values either mean may overflow to inf, which is
    # kept as it is, without the warning
    theta_unit = theta_c.replace_beta(np.ones(1))
    with np.errstate(over="ignore"):
        qv = float(np.mean(np.diff(path.values) ** 2)) / path.delta
        c_unit = float(np.mean(ctx.model.diffsq(theta_unit, xprev)))
    if c_unit <= 0 or qv <= 0:
        return None
    start = center.copy()
    start[m1] = np.sqrt(qv / c_unit)
    return start


def _block_starts(lower, upper, opts: FitOptions, extra=None):
    """The starts of a fit of one parameter block: half as many, at least 4."""
    return _start_points(lower, upper, max(4, opts.n_starts // 2), extra=extra)


def _search_and_polish(ctxs, theta_of, lower, upper, starts, opts: FitOptions):
    """The search from ``starts[p]`` on the path of ``ctxs[p]``, then the
    polish of its ``opts.polish_top`` best finite starts from inside the
    polish's bounds, for every path of a block at once.

    The objective is ql_total at theta = theta_of(v); the contexts share one
    model and one observation step.  Returns, for each path, its fit, or
    the ``EstimationError`` of a path whose starts all failed.  The fit is
    the path's best polished candidate, ties to the earlier start, with
    theta_hat = theta_of(clip(x)); it is at the boundary on the polish's
    bounds, and converged if off them and the largest entry of the polish's
    final FD gradient is at most _GRAD_TOL * (1 + |objective|).
    """
    f_rows = _guarded(_ql_rows(ctxs, theta_of))
    counts = [len(s) for s in starts]
    path = np.repeat(np.arange(len(ctxs)), counts)  # the path of each search row
    x, fun, nit = _nelder_mead(lambda rows, points: f_rows(path[rows], points),
                               np.concatenate(starts), lower, upper, maxfev=200 * lower.size)
    # the polish rows: each path's best finite starts, ties to the earlier start
    order = np.lexsort((fun, path))
    order = order[fun[order] < _BIG]
    rank = np.arange(order.size) - np.searchsorted(path[order], path[order])
    best = order[rank < opts.polish_top]
    # each path's scalar objective; ql_total is looked up at each call, as
    # the benchmark's traced run wraps it to count evaluations
    fs = [_safe(lambda v, ctx=ctx: ql_total(ctx, theta_of(v))) for ctx in ctxs]
    owner = path[best]  # the path of each polish row
    plo, phi = _polish_bounds(lower, upper)
    xp, fp, nitp, gp = _lbfgsb(
        lambda r, v: fs[owner[r]](v),
        lambda rows, points: _row_gradients(f_rows, owner[rows], points),
        x[best], plo, phi)

    at_boundary = np.any((xp <= plo + 1e-12) | (xp >= phi - 1e-12), axis=1)
    converged = ~at_boundary & (np.abs(gp).max(axis=1) <= _GRAD_TOL * (1.0 + np.abs(fp)))
    # each path's fit: its best polish row, ties to the earlier start
    order = np.lexsort((best, fp, owner))
    fitted, first = np.unique(owner[order], return_index=True)
    fit_row = np.full(len(ctxs), -1)
    fit_row[fitted] = order[first]
    iterations = np.bincount(path, nit, len(ctxs)) + np.bincount(owner, nitp, len(ctxs))
    out = []
    for p, r in enumerate(fit_row):
        if r >= 0:
            out.append(FitResult(theta_of(np.clip(xp[r], lower, upper)), float(fp[r]),
                                 bool(converged[r]), int(iterations[p]), counts[p],
                                 bool(at_boundary[r])))
        else:
            out.append(EstimationError("all optimizer starts failed", diagnostics=[
                f"start {idx}: non-finite objective" for idx in range(counts[p])]))
    return out


def _check_length(ctx: QLContext):
    model = ctx.model
    if ctx.path.n + 1 < model.m1 + model.m2 + 2:
        raise EstimationError("path too short for the number of parameters")


def _fit_of(entry) -> FitResult:
    """A path's entry of ``_search_and_polish``: its fit, or its error raised."""
    if isinstance(entry, EstimationError):
        raise entry
    return entry


def _box_fit(ctx: QLContext, theta_of, lower, upper, starts, opts: FitOptions) -> FitResult:
    """Fit v over [lower, upper] on the path of ctx, with theta = theta_of(v):
    the search from ``starts`` and the polish, a block of one path.
    """
    _check_length(ctx)
    return _fit_of(_search_and_polish([ctx], theta_of, lower, upper, [starts], opts)[0])


def mqle_search(ctxs, opts: FitOptions = FitOptions()):
    """The fits of ``mqle`` on a block of paths at once.

    The contexts share one model and one observation step.  Returns, for
    each context, its fit, the same as ``mqle(ctx, opts)`` (the gradient
    test reads the polish's final FD gradient), or that path's
    ``EstimationError``.
    """
    box = ctxs[0].model.box
    starts = [_start_points(box.lower, box.upper, opts.n_starts, extra=_heuristic_start(ctx))
              for ctx in ctxs]
    return _search_and_polish(ctxs, _split(ctxs[0].model.m1), box.lower, box.upper,
                              starts, opts)


def mqle(ctx: QLContext, opts: FitOptions = FitOptions(), *, polished=None) -> FitResult:
    """Minimize ql_total over the box; deterministic multi-start search.

    The fit of a block of one, ``mqle_search([ctx], opts)``: the best
    polished candidate, converged if off the polish's bounds and its final
    FD gradient passes the test of ``FitResult.converged``.  ``polished`` is
    this path's entry of ``mqle_search``, when the search and the polish
    already ran with other paths; the fit is the same, and an error entry
    is raised.
    """
    _check_length(ctx)
    return _fit_of(mqle_search([ctx], opts)[0] if polished is None else polished)


def initial_beta(ctx: QLContext, opts: FitOptions = FitOptions()) -> FitResult:
    """Diffusion-block pre-estimator: the quasi-likelihood fit of the
    drift-free model.

    Minimizes U_n(beta) = (1/2) sum { (X_i - X_{i-1})^2 / (delta c) + log c },
    ql_total with b = 0 and gamma2 = 0, over the beta box; alpha in the
    returned vector is the box center.
    """
    m1 = ctx.model.m1
    box = ctx.model.box
    lower, upper = box.lower[m1:], box.upper[m1:]
    alpha_c = box.center()[:m1]
    return _box_fit(_drift_free(ctx), lambda bv: ParamVector._wrap(alpha_c, bv), lower, upper,
                    _block_starts(lower, upper, opts), opts)


def adaptive_estimate(ctx: QLContext, opts: FitOptions = FitOptions()) -> FitResult:
    """One alpha-step then one beta-step, started from initial_beta."""
    m1 = ctx.model.m1
    box = ctx.model.box
    beta0 = initial_beta(ctx, opts).theta_hat.beta

    lower, upper = box.lower[:m1], box.upper[:m1]
    step_a = _box_fit(ctx, lambda av: ParamVector._wrap(av, beta0), lower, upper,
                      _block_starts(lower, upper, opts), opts)
    alpha1 = step_a.theta_hat.alpha

    lower, upper = box.lower[m1:], box.upper[m1:]
    step_b = _box_fit(ctx, lambda bv: ParamVector._wrap(alpha1, bv), lower, upper,
                      _block_starts(lower, upper, opts, extra=beta0), opts)

    return replace(step_b, adaptive=True,
                   converged=step_a.converged and step_b.converged,
                   iterations=step_a.iterations + step_b.iterations,
                   restarts_used=step_a.restarts_used + step_b.restarts_used,
                   at_boundary=step_a.at_boundary or step_b.at_boundary)
