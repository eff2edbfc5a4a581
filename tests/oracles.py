"""Oracles the tests check the library against, kept out of the library."""

import math

import numpy as np
from scipy import optimize

from qltest import ParamVector, ql_total
from qltest.errors import EstimationError
from qltest.estimate import _BIG, _GRAD_TOL, _OBJ_REL_TOL, _PGTOL, _POLISH_MAXITER, _safe
from qltest.quasilik import _GRADIENT, _central_difference


def objective(ctx):
    """ql_total on the path of ctx as a function of the flat v = (alpha, beta).

    One point per call: the scalar objective that the fits' row evaluators,
    searches and finite-difference stencils must reproduce.
    """
    m1 = ctx.model.m1

    def f(v):
        return ql_total(ctx, ParamVector(v[:m1], v[m1:]))

    return f


def scipy_lbfgsb(f, jac, x0, lower, upper, maxiter=_POLISH_MAXITER):
    """scipy's L-BFGS-B from x0 with the options of the fits' polish."""
    return optimize.minimize(
        f, x0, method="L-BFGS-B", jac=jac, bounds=list(zip(lower, upper)),
        options=dict(maxiter=maxiter, ftol=_OBJ_REL_TOL, gtol=_PGTOL),
    )


def reference_polish(f, f_rows, search, lower, upper, opts):
    """The polish and judge of one problem, one scipy L-BFGS-B run per candidate.

    ``f`` is the scalar objective and ``f_rows`` a row evaluator of the same
    objective on this one problem, from which each FD gradient is taken.
    ``search`` holds (x, fun, nit) of each start, in start order.  The
    ``opts.polish_top`` best finite starts are polished in turn, from inside
    bounds inset by 3e-5 * max(1, |bound|); the best polished point, ties
    to the earlier start, is the fit.  Returns (x, objective, converged,
    iterations, restarts, at_boundary), the fields of ``FitResult`` that
    follow theta_hat with x in their place.
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

    inset = 3e-5 * np.maximum(1.0, np.maximum(np.abs(lower), np.abs(upper)))
    plo = lower + inset
    phi = upper - inset

    def jac(v):
        return _central_difference(_GRADIENT, f_rows, v)

    best = None
    for fun, idx, x in stage1[: max(1, opts.polish_top)]:
        res = scipy_lbfgsb(f, jac, np.clip(x, plo, phi), plo, phi)
        iterations += res.nit
        cand = (res.fun, idx, res.x)
        if best is None or cand[:2] < best[:2]:
            best = cand
    fun, idx, x = best

    at_boundary = bool(np.any(x <= plo + 1e-12) or np.any(x >= phi - 1e-12))
    converged = False
    if not at_boundary:
        g = _central_difference(_GRADIENT, f_rows, x, lower, upper)
        converged = bool(np.max(np.abs(g)) <= _GRAD_TOL * (1.0 + abs(fun)))
    return x, float(fun), converged, iterations, len(funs), at_boundary


def ou_conditional_mle(path):
    """The exact conditional MLE (a1, a2, b1) of OU on ``path``.

    Over one step delta the Ornstein-Uhlenbeck process is the AR(1) process
    X_i = a2 + phi (X_{i-1} - a2) + e_i, phi = exp(-a1 delta), with
    e_i ~ N(0, b1^2 (1 - phi^2) / (2 a1)).  Maximizing the likelihood of
    X_1..X_n given X_0 is the least-squares regression of X_i on X_{i-1},
    mapped back to (a1, a2, b1).  A path whose fitted phi is not inside
    (0, 1) has no maximizer with a1 > 0 (there the likelihood grows as a1
    falls to 0, or phi is not an exponential); it raises ValueError, so no
    such path is ever dropped without notice.
    """
    x0, x1 = path.values[:-1], path.values[1:]
    d0, d1 = x0 - x0.mean(), x1 - x1.mean()
    phi = float(np.dot(d0, d1) / np.dot(d0, d0))
    if not 0.0 < phi < 1.0:
        raise ValueError(f"no mean-reverting maximum: fitted phi = {phi}")
    intercept = x1.mean() - phi * x0.mean()
    resid_var = float(np.mean((x1 - intercept - phi * x0) ** 2))
    a1 = -math.log(phi) / path.delta
    return np.array([
        a1,
        intercept / (1.0 - phi),
        math.sqrt(resid_var * 2.0 * a1 / (1.0 - phi * phi)),
    ])


def reference_gamma2(b, c, dc, d2c, db):
    """gamma2 = (b dc + 2 c db) / 2 + c d2c / 4 with every product formed,
    whatever the shape or value of its pieces."""
    return 0.5 * (b * dc + 2.0 * c * db) + 0.25 * c * d2c


def reference_terms(model, delta, xprev, xnext, theta):
    """The terms l_i of the transitions xprev -> xnext, as the formula reads.

    b, c, gamma2 and the corrections d1 = -gamma2 / c, e1 = -d1 are each
    formed at the shape their pieces broadcast to, with no product left out:
    the arithmetic that ``quasilik._terms`` must equal bit for bit wherever
    the drift is finite.  c is taken as finite and positive (``_terms``
    raises ``DomainError`` otherwise).
    """
    b = model.drift(theta, xprev)
    sig = model.diff(theta, xprev)
    c = sig * sig
    dc = model.diffsq_dx(theta, xprev)
    d2c = model.diffsq_dxx(theta, xprev)
    db = model.drift_dx(theta, xprev)
    g2 = reference_gamma2(b, c, dc, d2c, db)
    d1 = -g2 / c
    resid = xnext - (xprev + delta * b)
    return resid * resid / (2.0 * delta * c) * (1.0 + delta * d1) + 0.5 * (
        np.log(c) - delta * d1
    )


def reference_stepwise_beta(ctx, beta_tilde, beta0):
    """The stepwise beta statistic sum_i (dX_i^2 / delta (1/c~ - 1/c0) + log(c~/c0))^2.

    c~ and c0 are c at X_{i-1} with beta_tilde and with beta0, alpha at the
    box center (c does not depend on alpha for the built-in models).  Each
    summand is twice the difference of the local-Gaussian contrast's terms,
    written out from c alone.
    """
    model, path = ctx.model, ctx.path
    xprev = path.values[:-1]
    dx2 = np.diff(path.values) ** 2
    alpha_c = model.box.center()[: model.m1]
    c_tilde = np.asarray(model.diffsq(ParamVector(alpha_c, beta_tilde), xprev), dtype=float)
    c_0 = np.asarray(model.diffsq(ParamVector(alpha_c, beta0), xprev), dtype=float)
    terms = dx2 / path.delta * (1.0 / c_tilde - 1.0 / c_0) + np.log(c_tilde / c_0)
    return float(np.sum(terms * terms))
