"""Second-order quasi-loglikelihood of a discretely observed diffusion.

The per-observation term (negative log of the corrected local-Gaussian
transition approximation, additive constant dropped) is

    l_i(theta) = (X_i - r1)^2 / (2 delta c) * (1 + delta d1)
               + (log c + delta e1) / 2

with r1, d1, e1 evaluated at X_{i-1}.  The estimator minimizes the sum.

All theta-derivatives are central finite differences.  Each rule is its
stencil and the combination of the values there; ``ql_grad``, ``ql_hess``
(and so ``observed_info``) and ``fisher_info`` evaluate the whole stencil as
one row call, the points stacked as a (d, k, 1) parameter block against the
path, which gives the values of the one-point-at-a-time loop
(``fd_gradient``/``fd_hessian``) bit for bit.  ``_ql_rows`` is that row
evaluator; the estimator's search and polish use it as well.
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

# path values per chunk of rows evaluated at once: an (8, 1000) chunk stays
# in cache, where one (100, 1000) batch ran no faster than row by row
_CHUNK_VALUES = 8192


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


def _steps(x: np.ndarray) -> np.ndarray:
    return FD_REL_STEP * np.maximum(1.0, np.abs(x))


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


# A central-difference rule is a pair: its stencil, the (k, d) points at
# which the function is evaluated, and the combination of the k values into
# the derivative.  The combination is the arithmetic, in the order, of the
# one-point-at-a-time loop, so the result does not depend on how the values
# were computed.  The values may carry trailing axes (a function along a
# path); the combination then runs along the first.


def _gradient_points(x, h):
    """x + h_j e_j and x - h_j e_j, for each coordinate j in turn."""
    step = np.diag(h)
    return np.stack([x + step, x - step], axis=1).reshape(-1, x.size)


def _gradient_combine(values, h):
    """(f(x + h_j e_j) - f(x - h_j e_j)) / (2 h_j) for every j."""
    step = (2.0 * h).reshape(h.shape + (1,) * (values.ndim - 1))
    return (values[0::2] - values[1::2]) / step


_GRADIENT = (_gradient_points, _gradient_combine)


def _hessian_points(x, h):
    """x; x + h_j e_j for every j; x - h_j e_j for every j; then the corners
    x +- h_j e_j +- h_k e_k of the pairs j < k, as four blocks (++, +-, -+,
    --), each over all pairs."""
    step = np.diag(h)
    plus, minus = x + step, x - step
    j, k = np.triu_indices(x.size, 1)
    return np.vstack([
        x, plus, minus,
        plus[j] + step[k], plus[j] - step[k], minus[j] + step[k], minus[j] - step[k],
    ])


def _hessian_combine(values, h):
    """The Hessian from the values at ``_hessian_points``, symmetrized as (H + H') / 2."""
    d = h.size
    j, k = np.triu_indices(d, 1)
    f0, fp, fm = values[0], values[1 : d + 1], values[d + 1 : 2 * d + 1]
    fpp, fpm, fmp, fmm = values[2 * d + 1 :].reshape(4, -1)
    H = np.empty((d, d))
    H[np.diag_indices(d)] = (fp + fm - 2.0 * f0) / (h * h)
    H[j, k] = H[k, j] = (fpp - fpm - fmp + fmm) / (4.0 * h[j] * h[k])
    return 0.5 * (H + H.T)


_HESSIAN = (_hessian_points, _hessian_combine)


def _central_difference(rule, f_rows, x, lower=None, upper=None):
    """``rule`` at x, its stencil's k values from one ``f_rows(None, stencil)`` call.

    ``f_rows`` is a row evaluator of one problem (see ``_ql_rows``).
    """
    points, combine = rule
    x = np.asarray(x, dtype=float)
    h = _steps(x)
    _check_interior(x, h, lower, upper)
    return combine(np.asarray(f_rows(None, points(x, h)), dtype=float), h)


def _scalar_loop(f):
    """A row evaluator that calls the scalar function f(v) once per point."""
    return lambda _rows, points: [f(v) for v in points]


def fd_gradient(f, x, lower=None, upper=None) -> np.ndarray:
    """Central-difference gradient with per-coordinate step FD_REL_STEP*max(1,|x_j|).

    The scalar loop over the stencil: f is called once per point.
    """
    return _central_difference(_GRADIENT, _scalar_loop(f), x, lower, upper)


def fd_hessian(f, x, lower=None, upper=None) -> np.ndarray:
    """Central-difference Hessian, symmetrized as (H + H') / 2.

    The scalar loop over the stencil: f is called once per point.
    """
    return _central_difference(_HESSIAN, _scalar_loop(f), x, lower, upper)


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


def _split(m1):
    """theta of a (d, k, 1) block of flat points v = (alpha, beta)."""
    return lambda block: ParamVector._wrap(block[:m1], block[m1:])


def _ql_rows(ctxs, theta_of, row_ctx=None, terms=_terms):
    """The row evaluator: f(rows, points) sums the terms of each listed row.

    Row r of ``points`` (shape (k, d)) is mapped by ``theta_of`` to a
    parameter, the (d, k, 1) block of a chunk of rows becoming one
    parameter block, and its terms are summed on the path of
    ``ctxs[row_ctx[rows[r]]]``; with one context every row is on its path,
    broadcast as (1, n), and ``rows`` is not read.  ``terms(model, delta,
    xprev, xnext, theta)`` defaults to the quasi-likelihood terms, so a row
    is ql_total at its point, bit for bit.  Chunks hold at most
    _CHUNK_VALUES // n rows.  Nothing is caught and no value is mapped: a
    non-finite total stays non-finite.
    """
    model, delta = ctxs[0].model, ctxs[0].path.delta
    if len(ctxs) == 1:
        xprev, xnext = ctxs[0].xprev, ctxs[0].xnext
    else:
        xprev = np.stack([ctx.xprev for ctx in ctxs])
        xnext = np.stack([ctx.xnext for ctx in ctxs])
    chunk = max(1, _CHUNK_VALUES // xprev.shape[-1])

    def f(rows, points):
        out = np.empty(len(points))
        for i in range(0, len(points), chunk):
            block = points[i : i + chunk].T[:, :, None]
            if xprev.ndim == 1:
                xp, xn = xprev, xnext
            else:
                paths = row_ctx[rows[i : i + chunk]]
                xp, xn = xprev[paths], xnext[paths]
            out[i : i + chunk] = terms(model, delta, xp, xn, theta_of(block)).sum(axis=1)
        return out

    return f


def ql_grad(ctx: QLContext, theta: ParamVector) -> np.ndarray:
    """Finite-difference gradient of ql_total at theta, its stencil one row call."""
    box = ctx.model.box
    f_rows = _ql_rows([ctx], _split(ctx.model.m1))
    return _central_difference(_GRADIENT, f_rows, theta.full, box.lower, box.upper)


def ql_hess(ctx: QLContext, theta: ParamVector) -> np.ndarray:
    """Finite-difference Hessian of ql_total at theta (symmetrized), its stencil one row call."""
    box = ctx.model.box
    f_rows = _ql_rows([ctx], _split(ctx.model.m1))
    return _central_difference(_HESSIAN, f_rows, theta.full, box.lower, box.upper)


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


def fisher_info(ctx: QLContext, theta: ParamVector) -> InfoMatrix:
    """Empirical Fisher information (block-diagonal by construction).

    Drift block: (1/n) sum d_a b d_a b' / c; diffusion block:
    (1/2n) sum d_b c d_b c' / c^2, with parameter derivatives by the
    central-difference gradient rule, its stencil evaluated as rows of b and
    c along the path.
    """
    model = ctx.model
    xprev = ctx.xprev
    c = np.asarray(model.diffsq(theta, xprev), dtype=float)

    def derivative(x, f, theta_of):
        def along_path(_rows, points):
            # f at every stencil point, as one (k, n) row call
            values = np.asarray(f(theta_of(points.T[:, :, None]), xprev), dtype=float)
            return np.broadcast_to(values, (len(points), xprev.size))

        return _central_difference(_GRADIENT, along_path, x)

    db = derivative(theta.alpha, model.drift, lambda a: ParamVector._wrap(a, theta.beta))
    dcb = derivative(theta.beta, model.diffsq, lambda b: ParamVector._wrap(theta.alpha, b))

    block_aa = (db / c) @ db.T / xprev.size
    block_bb = 0.5 * (dcb / c**2) @ dcb.T / xprev.size
    return InfoMatrix(
        block_aa=block_aa,
        block_ab=np.zeros((model.m1, model.m2)),
        block_bb=block_bb,
    )
