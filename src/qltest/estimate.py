"""Maximum quasi-likelihood estimation over the compact parameter box.

A fit has two stages.  First a bounded Nelder-Mead search runs from several
deterministic starts; the starts are rows of one lockstep search that takes,
row for row, exactly the steps of scipy's per-start
``minimize(method="Nelder-Mead")``, and the Monte Carlo harness runs the
starts of a whole block of paths as one such search.  Then the best
candidates of each path are polished one at a time by a box-constrained
quasi-Newton method on the scalar objective, driven by finite-difference
gradients whose stencil is evaluated as one row call of the same objective.
The adaptive variant alternates one alpha-minimization and one
beta-minimization, seeded by the plain local-Gaussian diffusion estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.stats import qmc

from .errors import EstimationError
from .models import ParamVector
from .quasilik import (
    _GRADIENT,
    QLContext,
    _central_difference,
    _objective,
    _ql_rows,
    _split,
    ql_total,
)

__all__ = ["FitOptions", "FitResult", "mqle", "initial_beta", "adaptive_estimate"]

_BIG = 1e300
_SOBOL_SEED = 20200517  # fixed so multi-start points are reproducible

# scipy's non-adaptive Nelder-Mead coefficients and initial-simplex steps
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025

# Nelder-Mead tolerances on x and f
_NM_XATOL, _NM_FATOL = 1e-4, 1e-8

# L-BFGS-B polish: iteration cap and relative objective tolerance; a fit
# converged when its largest FD gradient entry is <= _GRAD_TOL * (1 + |f|)
_POLISH_MAXITER = 500
_OBJ_REL_TOL = 1e-10
_GRAD_TOL = 1e-6


@dataclass(frozen=True)
class FitOptions:
    n_starts: int = 8
    polish_top: int = 2


@dataclass(frozen=True)
class FitResult:
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
        sob = qmc.Sobol(d=lower.size, scramble=True, seed=_SOBOL_SEED)
        pts = sob.random_base2(max(1, math.ceil(math.log2(need))))[:need]
        starts.extend(inset_lo + pts * (inset_hi - inset_lo))
    return starts[:n_starts]


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


def _nelder_mead(f_rows, x0, lower, upper, xatol, fatol, maxfev):
    """Bounded Nelder-Mead from every row of ``x0`` (shape (R, d)) in lockstep.

    Row r takes exactly the steps of scipy 1.17's ``minimize(f, x0[r],
    method="Nelder-Mead", bounds=..., options=dict(xatol=xatol,
    fatol=fatol, maxiter=maxfev, maxfev=maxfev))``: the same initial simplex,
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
        done = (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= xatol) & (
            np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= fatol
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


def _search(f_rows, starts, lower, upper):
    """The Nelder-Mead stage from every start (rows of ``starts``) at once."""
    maxfev = 200 * lower.size
    return _nelder_mead(f_rows, starts, lower, upper, _NM_XATOL, _NM_FATOL, maxfev)


def _polish(f, f_rows, search, lower, upper, opts: FitOptions):
    """L-BFGS-B polish of one problem's best searched starts.

    ``f`` is the scalar objective and ``f_rows`` the same objective as a
    guarded row evaluator of this one problem: the FD gradient, of each
    step and of the convergence test, is one ``f_rows`` call over its
    stencil.  ``search`` holds (x, fun, nit) of each start, in start order.
    Returns (x, objective, converged, iterations, restarts, at_boundary).
    """
    f = _safe(f)
    xs, funs, nits = search
    stage1 = []
    iterations = 0
    diagnostics = []
    for idx, fun in enumerate(funs):
        iterations += int(nits[idx])
        if np.isfinite(fun) and fun < _BIG:
            stage1.append((fun, idx, xs[idx]))
        else:
            diagnostics.append(f"start {idx}: non-finite objective")
    if not stage1:
        raise EstimationError("all optimizer starts failed", diagnostics=diagnostics)
    stage1.sort(key=lambda t: (t[0], t[1]))

    # polish the best stage-1 candidates with projected quasi-Newton steps;
    # bounds are inset so the FD gradient never straddles the box edge
    inset = 3e-5 * np.maximum(1.0, np.maximum(np.abs(lower), np.abs(upper)))
    plo = lower + inset
    phi = upper - inset

    def jac(v):
        return _central_difference(_GRADIENT, f_rows, v)

    best = None
    for fun, idx, x in stage1[: max(1, opts.polish_top)]:
        xp = np.clip(x, plo, phi)
        res = optimize.minimize(
            f,
            xp,
            method="L-BFGS-B",
            jac=jac,
            bounds=list(zip(plo, phi)),
            options=dict(maxiter=_POLISH_MAXITER, ftol=_OBJ_REL_TOL, gtol=1e-9),
        )
        iterations += res.nit
        cand = (res.fun, idx, res.x)
        if best is None or cand[:2] < best[:2]:
            best = cand
    fun, idx, x = best

    at_boundary = bool(np.any(x <= plo + 1e-12) or np.any(x >= phi - 1e-12))
    converged = False
    if not at_boundary:
        # off the inset bounds, x is over three FD steps inside the box
        g = _central_difference(_GRADIENT, f_rows, x, lower, upper)
        converged = bool(np.max(np.abs(g)) <= _GRAD_TOL * (1.0 + abs(fun)))
    return x, float(fun), converged, iterations, len(funs), at_boundary


def _minimize_box(f, f_rows, starts, lower, upper, opts: FitOptions):
    """Lockstep Nelder-Mead from ``starts``, then the polish of ``f``."""
    search = _search(f_rows, np.array(starts), lower, upper)
    return _polish(f, f_rows, search, lower, upper, opts)


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


def mqle_search(ctxs, opts: FitOptions = FitOptions()):
    """The Nelder-Mead stage of ``mqle`` on several paths as one lockstep search.

    The contexts share one model and one observation step.  Returns, for
    each context, the search result that ``mqle(ctx, opts, search=...)``
    polishes: the same fit as ``mqle(ctx, opts)``.
    """
    model = ctxs[0].model
    box, m1 = model.box, model.m1
    starts = [
        _start_points(box.lower, box.upper, opts.n_starts, extra=_heuristic_start(ctx))
        for ctx in ctxs
    ]
    counts = [len(s) for s in starts]
    row_ctx = np.repeat(np.arange(len(ctxs)), counts)
    f_rows = _guarded(_ql_rows(ctxs, _split(m1), row_ctx))
    x, fun, nit = _search(f_rows, np.concatenate(starts), box.lower, box.upper)
    cuts = np.cumsum(counts)[:-1]
    return list(zip(np.split(x, cuts), np.split(fun, cuts), np.split(nit, cuts)))


def mqle(ctx: QLContext, opts: FitOptions = FitOptions(), *, search=None) -> FitResult:
    """Minimize ql_total over the box; deterministic multi-start search.

    ``search`` is this path's result from ``mqle_search``, when the
    Nelder-Mead stage already ran with other paths; by default it runs here.
    """
    model = ctx.model
    if ctx.path.n + 1 < model.m1 + model.m2 + 2:
        raise EstimationError("path too short for the number of parameters")
    box = model.box
    m1, m2 = model.m1, model.m2
    if search is None:
        (search,) = mqle_search([ctx], opts)
    # the polish evaluates through this module's ql_total binding, which the
    # benchmark's traced run wraps to count evaluations
    x, fun, converged, iters, restarts, at_boundary = _polish(
        _objective(ctx, ql_total), _guarded(_ql_rows([ctx], _split(m1))),
        search, box.lower, box.upper, opts,
    )
    return FitResult(
        theta_hat=ParamVector.from_full(box.clip(x), m1, m2),
        objective=fun,
        converged=converged,
        iterations=iters,
        restarts_used=restarts,
        at_boundary=at_boundary,
    )


def initial_beta(ctx: QLContext, opts: FitOptions = FitOptions()) -> FitResult:
    """Diffusion-block pre-estimator from the plain local-Gaussian contrast.

    Minimizes U_n(beta) = (1/2) sum { (X_i - X_{i-1})^2 / (delta c) + log c }
    over the beta box; alpha in the returned vector is the box center.
    """
    model = ctx.model
    m1, m2 = model.m1, model.m2
    box = model.box
    lower, upper = box.lower[m1:], box.upper[m1:]
    dx2 = np.diff(ctx.path.values) ** 2
    alpha_c = box.center()[:m1]

    # where c <= 0, log c is -inf or NaN and the guarded row reads _BIG
    def u_terms(model, delta, xprev, _xnext, theta):
        c = model.diffsq(theta, xprev)
        return 0.5 * (dx2 / (delta * c) + np.log(c))

    f_rows = _guarded(_ql_rows([ctx], lambda bv: ParamVector._wrap(alpha_c, bv), terms=u_terms))
    starts = _start_points(lower, upper, max(4, opts.n_starts // 2))
    x, fun, converged, iters, restarts, at_boundary = _minimize_box(
        lambda bv: f_rows(None, bv[None])[0], f_rows, starts, lower, upper, opts
    )
    beta = np.clip(x, lower, upper)
    return FitResult(
        theta_hat=ParamVector(alpha_c, beta),
        objective=fun,
        converged=converged,
        iterations=iters,
        restarts_used=restarts,
        at_boundary=at_boundary,
    )


def adaptive_estimate(ctx: QLContext, opts: FitOptions = FitOptions()) -> FitResult:
    """One alpha-step then one beta-step, started from initial_beta."""
    model = ctx.model
    m1, m2 = model.m1, model.m2
    box = model.box
    beta0 = initial_beta(ctx, opts).theta_hat.beta

    def step(lower, upper, starts, theta_of):
        return _minimize_box(
            lambda v: ql_total(ctx, theta_of(v)),
            _guarded(_ql_rows([ctx], theta_of)),
            starts, lower, upper, opts,
        )

    lower_a, upper_a = box.lower[:m1], box.upper[:m1]
    starts_a = _start_points(lower_a, upper_a, max(4, opts.n_starts // 2))
    xa, fa, conv_a, it_a, rs_a, bd_a = step(
        lower_a, upper_a, starts_a, lambda av: ParamVector._wrap(av, beta0)
    )
    alpha1 = np.clip(xa, lower_a, upper_a)

    lower_b, upper_b = box.lower[m1:], box.upper[m1:]
    starts_b = _start_points(lower_b, upper_b, max(4, opts.n_starts // 2), extra=beta0)
    xb, fb, conv_b, it_b, rs_b, bd_b = step(
        lower_b, upper_b, starts_b, lambda bv: ParamVector._wrap(alpha1, bv)
    )
    beta1 = np.clip(xb, lower_b, upper_b)

    return FitResult(
        theta_hat=ParamVector(alpha1, beta1),
        objective=float(fb),
        converged=bool(conv_a and conv_b),
        iterations=it_a + it_b,
        restarts_used=rs_a + rs_b,
        at_boundary=bool(bd_a or bd_b),
        adaptive=True,
    )
