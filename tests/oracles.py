"""Oracles the tests check the library against, kept out of the library."""

import math

import numpy as np

from qltest import ParamVector, ql_total


def objective(ctx):
    """ql_total on the path of ctx as a function of the flat v = (alpha, beta).

    One point per call: the scalar objective that the fits' row evaluators,
    searches and finite-difference stencils must reproduce.
    """
    m1 = ctx.model.m1

    def f(v):
        return ql_total(ctx, ParamVector(v[:m1], v[m1:]))

    return f


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
