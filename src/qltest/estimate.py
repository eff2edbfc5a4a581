"""Maximum quasi-likelihood estimation over the compact parameter box.

Multi-start Nelder-Mead to rough tolerance, then a box-constrained
quasi-Newton polish driven by finite-difference gradients.  The adaptive
variant alternates one alpha-minimization and one beta-minimization,
seeded by the plain local-Gaussian diffusion estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.stats import qmc

from .errors import BoundaryError, EstimationError
from .models import ParamVector
from .quasilik import QLContext, _objective, fd_gradient, ql_total

__all__ = ["FitOptions", "FitResult", "mqle", "initial_beta", "adaptive_estimate"]

_BIG = 1e300
_SOBOL_SEED = 20200517  # fixed so multi-start points are reproducible


@dataclass(frozen=True)
class FitOptions:
    n_starts: int = 8
    polish_top: int = 2
    nm_xatol: float = 1e-4
    nm_fatol: float = 1e-8
    polish_maxiter: int = 500
    grad_tol: float = 1e-6
    obj_rel_tol: float = 1e-10


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
    def wrapped(v):
        try:
            val = f(v)
        except (FloatingPointError, ValueError):
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


def _minimize_box(f, starts, lower, upper, opts: FitOptions):
    """Multi-start NM + L-BFGS-B polish of a box-constrained objective.

    Returns (x, objective, converged, iterations, restarts, at_boundary).
    """
    f = _safe(f)
    d = lower.size
    bounds = list(zip(lower, upper))
    stage1 = []
    iterations = 0
    diagnostics = []
    for idx, x0 in enumerate(starts):
        res = optimize.minimize(
            f,
            x0,
            method="Nelder-Mead",
            bounds=bounds,
            options=dict(
                xatol=opts.nm_xatol,
                fatol=opts.nm_fatol,
                maxiter=200 * d,
                maxfev=200 * d,
            ),
        )
        iterations += res.nit
        if np.isfinite(res.fun) and res.fun < _BIG:
            stage1.append((res.fun, idx, res.x))
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
        return fd_gradient(f, v, lower=None, upper=None)

    best = None
    for fun, idx, x in stage1[: max(1, opts.polish_top)]:
        xp = np.clip(x, plo, phi)
        res = optimize.minimize(
            f,
            xp,
            method="L-BFGS-B",
            jac=jac,
            bounds=list(zip(plo, phi)),
            options=dict(maxiter=opts.polish_maxiter, ftol=opts.obj_rel_tol, gtol=1e-9),
        )
        iterations += res.nit
        cand = (res.fun, idx, res.x)
        if best is None or cand[:2] < best[:2]:
            best = cand
    fun, idx, x = best

    at_boundary = bool(np.any(x <= plo + 1e-12) or np.any(x >= phi - 1e-12))
    converged = False
    if not at_boundary:
        try:
            g = fd_gradient(f, x, lower, upper)
            converged = bool(np.max(np.abs(g)) <= opts.grad_tol * (1.0 + abs(fun)))
        except BoundaryError:
            at_boundary = True
    return x, float(fun), converged, iterations, len(starts), at_boundary


def _heuristic_start(ctx: QLContext):
    """Box center for alpha, quadratic-variation scale for beta (m2 = 1)."""
    box = ctx.model.box
    m1, m2 = ctx.model.m1, ctx.model.m2
    center = box.center()
    if m2 != 1:
        return None
    path = ctx.path
    qv = float(np.mean(np.diff(path.values) ** 2)) / path.delta
    xprev = path.values[:-1]
    theta_c = ParamVector.from_full(center, m1, m2)
    # match mean(c) to the quadratic variation by rescaling the unit-beta c
    theta_unit = theta_c.replace_beta(np.ones(1))
    c_unit = float(np.mean(ctx.model.diffsq(theta_unit, xprev)))
    if c_unit <= 0 or qv <= 0:
        return None
    start = center.copy()
    start[m1] = np.sqrt(qv / c_unit)
    return start


def mqle(ctx: QLContext, opts: FitOptions = FitOptions()) -> FitResult:
    """Minimize ql_total over the box; deterministic multi-start search."""
    model = ctx.model
    if ctx.path.n + 1 < model.m1 + model.m2 + 2:
        raise EstimationError("path too short for the number of parameters")
    box = model.box
    m1, m2 = model.m1, model.m2
    starts = _start_points(box.lower, box.upper, opts.n_starts, extra=_heuristic_start(ctx))
    # evaluations go through this module's ql_total binding, which the
    # benchmark's traced run wraps to count them
    x, fun, converged, iters, restarts, at_boundary = _minimize_box(
        _objective(ctx, ql_total), starts, box.lower, box.upper, opts
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
    path = ctx.path
    dx2 = np.diff(path.values) ** 2
    xprev = path.values[:-1]
    alpha_c = box.center()[:m1]

    def u_n(bv):
        theta = ParamVector(alpha_c, bv)
        c = np.asarray(model.diffsq(theta, xprev), dtype=float)
        if np.any(c <= 0):
            return _BIG
        return 0.5 * float(np.sum(dx2 / (path.delta * c) + np.log(c)))

    starts = _start_points(lower, upper, max(4, opts.n_starts // 2))
    x, fun, converged, iters, restarts, at_boundary = _minimize_box(
        u_n, starts, lower, upper, opts
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

    def f_alpha(av, beta):
        return ql_total(ctx, ParamVector(av, beta))

    lower_a, upper_a = box.lower[:m1], box.upper[:m1]
    starts_a = _start_points(lower_a, upper_a, max(4, opts.n_starts // 2))
    xa, fa, conv_a, it_a, rs_a, bd_a = _minimize_box(
        lambda av: f_alpha(av, beta0), starts_a, lower_a, upper_a, opts
    )
    alpha1 = np.clip(xa, lower_a, upper_a)

    lower_b, upper_b = box.lower[m1:], box.upper[m1:]
    starts_b = _start_points(lower_b, upper_b, max(4, opts.n_starts // 2), extra=beta0)
    xb, fb, conv_b, it_b, rs_b, bd_b = _minimize_box(
        lambda bv: ql_total(ctx, ParamVector(alpha1, bv)), starts_b, lower_b, upper_b, opts
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
