"""Second-order quasi-loglikelihood of a discretely observed diffusion.

The per-observation term (negative log of the corrected local-Gaussian
transition approximation, additive constant dropped) is

    l_i(theta) = (X_i - r1)^2 / (2 delta c) * (1 + delta d1)
               + (log c + delta e1) / 2

with r1, d1, e1 evaluated at X_{i-1}.  The estimator minimizes the sum.
All theta-derivatives are central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryError, DomainError
from .models import Model, ParamVector, _gamma2

__all__ = [
    "QLContext",
    "InfoMatrix",
    "ql_terms",
    "ql_term",
    "ql_total",
    "ql_grad",
    "ql_hess",
    "observed_info",
    "fisher_info",
    "fd_gradient",
    "fd_hessian",
]

FD_REL_STEP = 1e-5


@dataclass(frozen=True)
class QLContext:
    """A model bound to the path it is evaluated on.

    ``xprev`` holds the left endpoints X_0 .. X_{n-1} and ``xnext`` the
    observations X_1 .. X_n, both views of the path taken once.
    """

    model: Model
    path: "SamplePath"
    xprev: np.ndarray = field(init=False, repr=False, compare=False)
    xnext: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.model.check_domain(self.path.values)
        object.__setattr__(self, "xprev", self.path.values[:-1])
        object.__setattr__(self, "xnext", self.path.values[1:])


def _pieces(model: Model, theta: ParamVector, xprev):
    """b, c, gamma2 at the left endpoints ``xprev``.

    Each may be a scalar where the model's callbacks do not depend on x;
    all of them broadcast against the path.
    """
    b = model.drift(theta, xprev)
    sig = model.diff(theta, xprev)
    c = sig * sig
    # the minimum is NaN if any element is, which fails the comparison too
    if not (0.0 < np.minimum.reduce(c, axis=None) and np.maximum.reduce(c, axis=None) < math.inf):
        raise DomainError("diffusion coefficient c must be positive and finite on the path")
    dc = model.diffsq_dx(theta, xprev)
    d2c = model.diffsq_dxx(theta, xprev)
    db = model.drift_dx(theta, xprev)
    return b, c, _gamma2(b, c, dc, d2c, db)


def _terms(model: Model, delta: float, xprev, xnext, theta: ParamVector) -> np.ndarray:
    """The terms l_i of the transitions xprev -> xnext.

    With 1-d parameter blocks and 1-d paths this is one path's terms.  With
    blocks of shape (m, k, 1) and paths stacked as (k, n) rows it gives the
    (k, n) terms of k parameter points, each row by the same operations as
    the single-path call.
    """
    b, c, g2 = _pieces(model, theta, xprev)
    d1 = -g2 / c
    resid = xnext - (xprev + delta * b)
    return resid * resid / (2.0 * delta * c) * (1.0 + delta * d1) + 0.5 * (
        np.log(c) - delta * d1
    )


def ql_terms(ctx: QLContext, theta: ParamVector) -> np.ndarray:
    """All per-observation terms l_i(theta), i = 1..n, as an array."""
    return _terms(ctx.model, ctx.path.delta, ctx.xprev, ctx.xnext, theta)


def ql_term(ctx: QLContext, theta: ParamVector, i: int) -> float:
    """Single term l_i(theta) for 1 <= i <= n."""
    if not 1 <= i <= ctx.path.n:
        raise IndexError(f"observation index {i} outside 1..{ctx.path.n}")
    return float(ql_terms(ctx, theta)[i - 1])


def ql_total(ctx: QLContext, theta: ParamVector) -> float:
    """Quasi-loglikelihood l_n(theta) = sum_i l_i(theta) (minimized)."""
    return float(ql_terms(ctx, theta).sum())


def _steps(x: np.ndarray, rel_step: float) -> np.ndarray:
    return rel_step * np.maximum(1.0, np.abs(x))


def _check_interior(x, h, lower, upper):
    if lower is not None:
        bad = np.where(x - h < lower)[0]
        if bad.size:
            raise BoundaryError(
                f"coordinate {bad[0]} within a finite-difference step of the lower bound",
                coordinate=int(bad[0]),
            )
    if upper is not None:
        bad = np.where(x + h > upper)[0]
        if bad.size:
            raise BoundaryError(
                f"coordinate {bad[0]} within a finite-difference step of the upper bound",
                coordinate=int(bad[0]),
            )


def fd_gradient(f, x, lower=None, upper=None, rel_step: float = FD_REL_STEP) -> np.ndarray:
    """Central-difference gradient with per-coordinate step rel_step*max(1,|x_j|)."""
    x = np.asarray(x, dtype=float)
    h = _steps(x, rel_step)
    _check_interior(x, h, lower, upper)
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h[j]
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h[j])
    return g


def fd_hessian(f, x, lower=None, upper=None, rel_step: float = FD_REL_STEP) -> np.ndarray:
    """Central-difference Hessian, symmetrized as (H + H') / 2."""
    x = np.asarray(x, dtype=float)
    h = _steps(x, rel_step)
    _check_interior(x, h, lower, upper)
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


def _objective(ctx: QLContext, total=ql_total):
    """``total`` as a function of the flat vector v = (alpha, beta).

    v is the optimizer's or the finite-difference stencil's float array; theta
    wraps views of it, without the copy and checks of ``ParamVector``.
    """
    m1 = ctx.model.m1
    wrap = ParamVector._wrap

    def f(v):
        return total(ctx, wrap(v[:m1], v[m1:]))

    return f


def ql_grad(ctx: QLContext, theta: ParamVector) -> np.ndarray:
    """Finite-difference gradient of ql_total at theta."""
    box = ctx.model.box
    return fd_gradient(_objective(ctx), theta.full, box.lower, box.upper)


def ql_hess(ctx: QLContext, theta: ParamVector) -> np.ndarray:
    """Finite-difference Hessian of ql_total at theta (symmetrized)."""
    box = ctx.model.box
    return fd_hessian(_objective(ctx), theta.full, box.lower, box.upper)


@dataclass(frozen=True)
class InfoMatrix:
    """Rate-normalized information blocks.

    block_aa carries the 1/(n delta) rate, block_ab 1/(n sqrt(delta)),
    block_bb 1/n; full() reassembles the symmetric matrix.
    """

    block_aa: np.ndarray
    block_ab: np.ndarray
    block_bb: np.ndarray

    def full(self) -> np.ndarray:
        top = np.hstack([self.block_aa, self.block_ab])
        bottom = np.hstack([self.block_ab.T, self.block_bb])
        return np.vstack([top, bottom])


def observed_info(ctx: QLContext, theta: ParamVector) -> InfoMatrix:
    """Observed information: the ql Hessian with block rate scalings."""
    m1 = ctx.model.m1
    n, delta = ctx.path.n, ctx.path.delta
    H = ql_hess(ctx, theta)
    return InfoMatrix(
        block_aa=H[:m1, :m1] / (n * delta),
        block_ab=H[:m1, m1:] / (n * np.sqrt(delta)),
        block_bb=H[m1:, m1:] / n,
    )


def fisher_info(ctx: QLContext, theta: ParamVector, rel_step: float = FD_REL_STEP) -> InfoMatrix:
    """Empirical Fisher information (block-diagonal by construction).

    Drift block: (1/n) sum d_a b d_a b' / c; diffusion block:
    (1/2n) sum d_b c d_b c' / c^2, with parameter derivatives by central
    finite differences on b and c along the path.
    """
    model = ctx.model
    m1, m2 = model.m1, model.m2
    xprev = ctx.xprev
    c = np.asarray(model.diffsq(theta, xprev), dtype=float)

    ha = _steps(theta.alpha, rel_step)
    db = np.empty((m1, xprev.size))
    for j in range(m1):
        e = np.zeros(m1)
        e[j] = ha[j]
        db[j] = (
            np.asarray(model.drift(theta.replace_alpha(theta.alpha + e), xprev), dtype=float)
            - np.asarray(model.drift(theta.replace_alpha(theta.alpha - e), xprev), dtype=float)
        ) / (2.0 * ha[j])

    hb = _steps(theta.beta, rel_step)
    dcb = np.empty((m2, xprev.size))
    for j in range(m2):
        e = np.zeros(m2)
        e[j] = hb[j]
        dcb[j] = (
            np.asarray(model.diffsq(theta.replace_beta(theta.beta + e), xprev), dtype=float)
            - np.asarray(model.diffsq(theta.replace_beta(theta.beta - e), xprev), dtype=float)
        ) / (2.0 * hb[j])

    block_aa = (db / c) @ db.T / xprev.size
    block_bb = 0.5 * (dcb / c**2) @ dcb.T / xprev.size
    return InfoMatrix(
        block_aa=block_aa,
        block_ab=np.zeros((m1, m2)),
        block_bb=block_bb,
    )
