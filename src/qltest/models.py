"""Parametric 1-d diffusion models dX = b(alpha, X) dt + sigma(beta, X) dW.

A model bundles the drift/diffusion pair, their analytic spatial
derivatives (needed by the second-order variance-expansion coefficient),
the state domain and a compact parameter box.  Ornstein-Uhlenbeck and CIR
ship as built-ins with exact derivatives and known invariant laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "ParamVector",
    "ParamBox",
    "Model",
    "PathSums",
    "InvariantLaw",
    "gamma2",
    "correction_d1",
    "correction_e1",
    "mean_expansion_r1",
    "make_ou",
    "make_cir",
    "make_model",
    "default_box",
]


@dataclass(frozen=True)
class ParamVector:
    """Parameter theta = (alpha, beta): drift block and diffusion block."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.atleast_1d(np.asarray(self.alpha, dtype=float)))
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, dtype=float)))
        if self.alpha.size < 1 or self.beta.size < 1:
            raise ConfigError("both parameter blocks must be non-empty")

    @property
    def m1(self) -> int:
        return self.alpha.size

    @property
    def m2(self) -> int:
        return self.beta.size

    @property
    def dim(self) -> int:
        return self.alpha.size + self.beta.size

    @property
    def full(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.beta])

    @classmethod
    def from_full(cls, values, m1: int, m2: int) -> "ParamVector":
        values = np.asarray(values, dtype=float)
        if values.size != m1 + m2:
            raise ConfigError(
                f"expected {m1 + m2} parameters, got {values.size}"
            )
        return cls(values[:m1].copy(), values[m1:].copy())

    @classmethod
    def _wrap(cls, alpha: np.ndarray, beta: np.ndarray) -> "ParamVector":
        """Wrap two float arrays as they are: no conversion, copy or check.

        Each is a 1-d block or, in the lockstep search, an (m, k, 1) block,
        or, in the batched simulation, an (m, rows) block.

        For loops that evaluate thousands of parameter vectors whose layout
        the caller has already fixed; everything else uses the constructor.
        """
        theta = cls.__new__(cls)
        object.__setattr__(theta, "alpha", alpha)
        object.__setattr__(theta, "beta", beta)
        return theta

    def replace_alpha(self, alpha) -> "ParamVector":
        return ParamVector(np.asarray(alpha, dtype=float), self.beta)

    def replace_beta(self, beta) -> "ParamVector":
        return ParamVector(self.alpha, np.asarray(beta, dtype=float))


@dataclass(frozen=True)
class ParamBox:
    """Compact parameter set: componentwise bounds with lower < upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, dtype=float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if self.lower.shape != self.upper.shape:
            raise ConfigError("box bounds must have equal length")
        if not np.all(self.lower < self.upper):
            raise ConfigError("box requires lower[i] < upper[i] for every i")

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, values, margin: float = 0.0) -> bool:
        values = np.asarray(values, dtype=float)
        return bool(
            np.all(values >= self.lower + margin)
            and np.all(values <= self.upper - margin)
        )

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def clip(self, values) -> np.ndarray:
        return np.clip(np.asarray(values, dtype=float), self.lower, self.upper)


@dataclass(frozen=True)
class InvariantLaw:
    """Descriptor of the stationary law, used as an oracle in tests."""

    kind: str  # "gaussian" or "gamma"
    params: tuple

    def mean(self) -> float:
        if self.kind == "gaussian":
            return self.params[0]
        shape, scale = self.params
        return shape * scale

    def var(self) -> float:
        if self.kind == "gaussian":
            return self.params[1]
        shape, scale = self.params
        return shape * scale**2


@dataclass(frozen=True)
class PathSums:
    """ql_total as a closed form in a few sums over the path, with a bound.

    ``callbacks`` are the model callbacks (drift, diff, drift_dx,
    diffsq_dx, diffsq_dxx) the closed form is derived for.
    ``sums(xprev, xnext, delta, box)`` returns the sums of a block of P
    paths, given as (P, n) rows of left endpoints and observations, as an
    array of P rows in the layout ``total`` reads, or None where the block
    lies outside the range in which the bound is proven for every parameter
    in ``box``.  ``total(sums, n, delta, theta)`` takes K such rows and a
    theta whose blocks have shape (m, K), and returns (value, bound), each
    of shape (K,): ``|value - ql_total| <= bound``, ql_total being the total
    of the row's path at its parameter.
    """

    sums: Callable
    total: Callable
    callbacks: tuple


@dataclass(frozen=True)
class Model:
    """Parametric SDE model with analytic spatial derivatives.

    The callbacks accept ``(theta, x)`` where ``x`` may be a scalar or a
    numpy array, and return a value that broadcasts against ``x``: a scalar
    where the value does not depend on ``x``, otherwise an array shaped like
    ``x``.  ``c = sigma**2`` is always derived from ``diff``.

    The estimators' lockstep search evaluates k parameter points at once:
    ``theta.alpha`` or ``theta.beta`` may then be a block of shape
    (m, k, 1), ``x`` has shape (k, n) or (n,), and the value must broadcast
    against ``x`` to (k, n).  The batched simulation steps rows with a
    parameter each: the blocks may then have shape (m, rows) against ``x``
    of shape (rows,).  Callbacks written with elementwise numpy operations
    on ``theta.alpha[i]``, ``theta.beta[i]`` and ``x`` do this unchanged,
    and each row equals the single-point value bit for bit.  A
    power of a parameter is written as a product (``b * b``): numpy
    evaluates ``**`` on a scalar with C ``pow`` but on an array as a
    product, one rounding apart at times.

    An x-derivative that is identically zero should return the float
    ``0.0`` (``_zero``): the quasi-likelihood then leaves its product out of
    gamma2, which for OU is one value per parameter point, not one per
    observation, and with all three zero it leaves out the correction.  An
    array of zeros gives the same terms at full cost.

    ``path_sums``, optional, gives ql_total from a few sums over the path
    (``PathSums``).  It holds only for the callbacks it names: a model
    built with other callbacks, by ``dataclasses.replace`` too, has none.
    """

    m1: int
    m2: int
    drift: Callable
    diff: Callable
    drift_dx: Callable
    diffsq_dx: Callable
    diffsq_dxx: Callable
    state_domain: tuple  # open interval (lo, hi)
    box: ParamBox
    invariant_law: Optional[Callable] = None
    name: str = "custom"
    path_sums: Optional[PathSums] = None

    def __post_init__(self):
        if self.box.dim != self.m1 + self.m2:
            raise ConfigError(
                f"box dimension {self.box.dim} != m1+m2 = {self.m1 + self.m2}"
            )
        callbacks = (self.drift, self.diff, self.drift_dx, self.diffsq_dx, self.diffsq_dxx)
        if self.path_sums is not None and self.path_sums.callbacks != callbacks:
            object.__setattr__(self, "path_sums", None)

    def diffsq(self, theta: ParamVector, x):
        s = self.diff(theta, x)
        return s * s

    def in_domain(self, x) -> bool:
        lo, hi = self.state_domain
        x = np.asarray(x, dtype=float)
        return bool(np.all(x > lo) and np.all(x < hi))

    def check_domain(self, x):
        if not self.in_domain(x):
            raise DomainError(
                f"state value outside the open domain {self.state_domain}"
            )

    def check_theta(self, theta: ParamVector):
        if theta.m1 != self.m1 or theta.m2 != self.m2:
            raise ConfigError("parameter block sizes do not match the model")
        if not self.box.contains(theta.full):
            raise ConfigError(f"theta {theta.full} outside the parameter box")


def gamma2(model: Model, theta: ParamVector, x) -> float:
    """Second-order coefficient of the conditional-variance expansion.

    gamma2 = (1/2) [b dc/dx + 2 c db/dx] + (c/4) d2c/dx2.

    Every product of the formula is formed over the whole of x, a float-0
    derivative taken as an array of zeros, so the value is shaped like x
    and is the formula's bit for bit: a drift that overflows where dc/dx
    is 0 makes it NaN.
    """
    model.check_domain(x)
    b = model.drift(theta, x)
    c = model.diffsq(theta, x)
    dc = _over_x(x, model.diffsq_dx(theta, x))
    d2c = _over_x(x, model.diffsq_dxx(theta, x))
    db = model.drift_dx(theta, x)
    return _gamma2(b, c, dc, d2c, db)


def _is_zero(d) -> bool:
    """Whether an x-derivative is the float 0, as ``_zero`` returns it."""
    return isinstance(d, float) and d == 0.0


def _over_x(x, d):
    """An x-derivative, a float 0 made an array of zeros shaped like x."""
    return np.full(np.shape(x), d) if _is_zero(d) else d


def _gamma2(b, c, dc, d2c, db):
    """gamma2 from b, c and their x-derivatives; shared with the quasi-likelihood.

    A product with an x-derivative that is the float 0 is left out, so
    gamma2 varies only where its pieces do: for OU it is one value per
    parameter point, not one per observation, and with all three the float
    0 it is the float 0.  Where c is finite and positive and the drift
    finite, that product is +-0, and the value differs from the full sum at
    most in the sign of a zero.
    """
    g = 0.0 if _is_zero(db) else 2.0 * c * db
    if not _is_zero(dc):
        g = b * dc + g
    g = 0.5 * g
    if not _is_zero(d2c):
        g = g + 0.25 * c * d2c
    return g


def correction_d1(model: Model, theta: ParamVector, x) -> float:
    """First-order correction to the quadratic term: -gamma2 / c."""
    c = model.diffsq(theta, x)
    return -gamma2(model, theta, x) / c


def correction_e1(model: Model, theta: ParamVector, x) -> float:
    """First-order correction to the log term: gamma2 / c = -d1."""
    return -correction_d1(model, theta, x)


def mean_expansion_r1(model: Model, theta: ParamVector, x, delta: float) -> float:
    """First-order conditional-mean expansion: x + delta * b(alpha, x)."""
    if delta < 0:
        raise ConfigError("delta must be nonnegative")
    return x + delta * model.drift(theta, x)


# --- built-in models -------------------------------------------------------
# Callbacks are module-level functions so Model instances pickle cleanly
# (the Monte Carlo harness ships them to worker processes).

def _linear_drift(theta, x):
    a1, a2 = theta.alpha
    return a1 * (a2 - x)


def _linear_drift_dx(theta, x):
    return -theta.alpha[0]


def _ou_diff(theta, x):
    return theta.beta[0]


def _zero(theta, x):
    return 0.0


def _cir_diff(theta, x):
    return theta.beta[0] * np.sqrt(x)


def _cir_diffsq_dx(theta, x):
    b = theta.beta[0]
    return b * b


def _ou_invariant(theta):
    a1, a2 = theta.alpha
    b1 = theta.beta[0]
    return InvariantLaw("gaussian", (a2, b1**2 / (2.0 * a1)))


def _cir_invariant(theta):
    a1, a2 = theta.alpha
    b1 = theta.beta[0]
    return InvariantLaw("gamma", (2.0 * a1 * a2 / b1**2, b1**2 / (2.0 * a1)))


# --- path sums of the built-ins ---------------------------------------------
# For a drift linear in the state, ql_total is a closed form in a few sums
# over the path (Kessler 1997).  Each total comes with a proven bound on its
# distance from ql_total as ``quasilik._terms`` computes it; ``_sums_bound``
# derives it.

_U = 2.0 ** -53  # unit roundoff of IEEE double precision

# the proven range: path values, the step, the box's alpha bounds and beta
# within 2**40 in magnitude; the step, beta and CIR's states at least 2**-40
_SUMS_RANGE = 2.0 ** 40


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * _U / (1.0 - k * _U)


def _in_sums_range(xprev, xnext, delta, box, positive):
    """Whether a block of paths and a box lie in the range of ``_sums_bound``."""
    big, small = _SUMS_RANGE, 1.0 / _SUMS_RANGE
    lo, hi = box.lower, box.upper
    floor = small if positive else -big
    # a NaN fails every comparison
    values = all(bool(np.all((x >= floor) & (x <= big))) for x in (xprev, xnext))
    alpha = bool(np.all(np.abs(lo[:-1]) <= big) and np.all(np.abs(hi[:-1]) <= big))
    return (values and alpha and small <= delta <= big and small <= lo[-1] and hi[-1] <= big
            and xprev.shape[-1] <= 2**30)


def _sums_bound(n, m, aw, wp):
    """The bound E of a path-sum total, from magnitudes formed of sums of
    absolute values.

    Notation: x_i = X_{i-1} and y_i = X_i (floats), D_i = y_i - x_i, theta
    the float parameter, h = delta a1, r_i = D_i + h (x_i - a2) the
    residual, c_i = beta1^2 (OU) or beta1^2 x_i (CIR), e_i = delta gamma2 /
    c_i the correction (OU: -h; CIR: h a2 / (2 x_i) - 3h/2), q_i = r_i^2 /
    (2 delta c_i), t_i = q_i (1 - e_i) + (log c_i + e_i) / 2, and T = sum t_i
    in exact arithmetic.  E bounds |S - T| + |V - T|, S being the total of
    the sums and V ql_total as ``quasilik._terms`` computes it.

    Assumptions.  IEEE double arithmetic with round to nearest: + - * / and
    sqrt are correctly rounded, fl(a op b) = (a op b)(1 + eps) + eta with
    |eps| <= u = 2^-53, |eta| <= 2^-1075, eta = 0 for + and -.  ``np.log``
    is within 4 ulps, so |fl(log z) - log z| <= 8u |log z|.  A sum of n
    values is any order of pairwise additions (numpy's pairwise sum is one),
    so each value passes at most n - 1 roundings.  The block lies in
    ``_in_sums_range`` and theta in the box, so no operation of either
    computation overflows (every intermediate is below 2^600), and an eta
    is multiplied on its way by at most 2^560 (h^3 a2^3 / (2 delta beta1^2)
    times 1/x^2): the at most 134 n etas together move either result by at
    most n 2^-500.  gamma_j + gamma_k + gamma_j gamma_k
    <= gamma_{j+k}, and a product of k factors (1 + eps)^{+-1} is 1 + theta_k,
    |theta_k| <= gamma_k (Higham 2002, Lemmas 3.1 and 3.3).

    The sums.  S evaluates a polynomial in per-path sums of products of
    D_i, x_i, 1/x_i and log x_i, divided by 2 delta beta1^2.  Each product
    carries at most 8 roundings, its path sum n - 1 more, the coefficients
    and their combination at most 31 more, so S = sum over the monomials of
    their exact value times (1 + theta_{n+40}): |S - T| <= gamma_{n+40} T_abs,
    T_abs being the same formula with every leaf and coefficient replaced
    by its absolute value and every path sum by the sum of absolute values
    (sum |D_i| for sum D_i).  T_abs <= M below.

    The terms.  In ``_terms``, c carries theta_5 (CIR: sqrt, product,
    square) and so log c an absolute error of gamma_6 besides the 8u of
    ``np.log``; e is within gamma_8 ebar_i of e_i, where ebar_i = |h| (OU) or
    |h| (|a2| / x_i + 3) (CIR) also bounds |e_i|; the residual, formed as
    y - (x + delta b), is within rho_i <= gamma_5 P_i of r_i, P_i = |D_i| +
    |x_i| (1 + 2|h|) + 2|h||a2|; and q_i carries theta_8 on r_i^2.  Carrying
    these through quad (1 - e) + (log c + e) / 2 gives, with m_i = q_i (1 +
    ebar_i) + |log c_i| / 2 + ebar_i / 2 + 1 >= |t_i| and weights w_i = (1 +
    ebar_i) / (2 delta c_i),

        |fl(t_i) - t_i| <= gamma_20 m_i + (1 + gamma_19) w_i rho_i (2|r_i| + rho_i),

    and the sum of the n computed terms adds gamma_{n-1} sum |fl(t_i)|.  By
    Cauchy-Schwarz, sum w_i rho_i |r_i| <= gamma_5 sqrt(W_P A_w) with A_w =
    sum w_i R_i^2 >= sum w_i r_i^2, R_i = |D_i| + |h| (|a2| + |x_i|), and W_P
    = sum w_i P_i^2; so |V - T| <= gamma_{n+19} M + 3 gamma_5 sqrt(W_P A_w)
    + 2 gamma_5^2 W_P, with M >= sum m_i.

    Together |S - T| + |V - T| <= 2 gamma_{n+40} M + 3 gamma_5 sqrt(W_P A_w)
    + 2 gamma_5^2 W_P + n 2^-500.  M, A_w and W_P are sums of positive
    terms, each computed within a factor 1 - gamma_{n+40} of its value; the
    constants 2.5, 4 and 3 below cover that.  ``m``, ``aw`` and ``wp`` are
    M, A_w and W_P of each row.
    """
    g5 = _gamma(5)
    return (2.5 * _gamma(n + 40) * m + 4.0 * g5 * np.sqrt(wp) * np.sqrt(aw)
            + 3.0 * g5 * g5 * wp + n * 2.0 ** -500)


def _nested(table, h, a2):
    """A + h (2 (B - a2 C) + h (D - a2 (E - a2 F))) for each column of a
    (K, 6, C) table of rows A .. F, with h and a2 of shape (K, C).

    Every quadratic form of the built-ins' totals and bounds has this
    shape: a signed form with (h, a2), and its form of absolute values,
    whose rows are sums of absolute values, with (|h|, -|a2|).
    """
    a, b, c, d, e, f = np.moveaxis(table, 1, 0)
    return a + h * (2.0 * (b - a2 * c) + h * (d - a2 * (e - a2 * f)))


# the columns of each table evaluated with (h, a2); the others take (|h|, -|a2|)
_OU_SIGNED = np.array([True, False, False])
_CIR_SIGNED = np.array([True, True, False, False, False, False])


def _ou_sums(xprev, xnext, delta, box):
    """OU's table for ``_nested``, from the 5 sums of the closed form (sum
    D^2, D, D x, x, x^2) and 3 sums of absolute values for its bound (sum
    |D|, |D x|, |x|); columns: sum r^2, its form of absolute values (sum
    R^2) and sum P^2 of ``_sums_bound``."""
    if not _in_sums_range(xprev, xnext, delta, box, positive=False):
        return None
    d = xnext - xprev
    dx = d * xprev
    s_dd, s_d, s_dx = (d * d).sum(-1), d.sum(-1), dx.sum(-1)
    s_x, s_xx = xprev.sum(-1), (xprev * xprev).sum(-1)
    a_d, a_dx, a_x = np.abs(d).sum(-1), np.abs(dx).sum(-1), np.abs(xprev).sum(-1)
    n = np.full_like(s_dd, xprev.shape[-1])
    return np.stack([
        [s_dd, s_dd, s_dd + 2.0 * a_dx + s_xx],
        [s_dx, a_dx, 2.0 * (a_dx + s_xx)],
        [s_d, a_d, 2.0 * (a_d + a_x)],
        [s_xx, s_xx, 4.0 * s_xx],
        [2.0 * s_x, 2.0 * a_x, 8.0 * a_x],
        [n, n, 4.0 * n],
    ]).transpose(2, 0, 1)


def _ou_total(sums, n, delta, theta):
    """OU's ql_total from its sums and the bound of ``_sums_bound``.

    c = beta1^2 and e = -h are constant, so T = (1 + h) sum r_i^2 / (2 delta
    c) + n (log beta1 - h / 2), with sum r_i^2 = sum (D + h (x - a2))^2 =
    sum D^2 + h (2 (sum D x - a2 sum D) + h (sum x^2 - a2 (2 sum x - a2 n))).
    """
    a1, a2 = theta.alpha
    b1 = theta.beta[0]
    h = delta * a1
    ha, aa = np.abs(h), np.abs(a2)
    q, qa, pp = _nested(sums, np.where(_OU_SIGNED, h[:, None], ha[:, None]),
                        np.where(_OU_SIGNED, a2[:, None], -aa[:, None])).T
    scale = 2.0 * delta * (b1 * b1)
    log_b1 = np.log(b1)
    value = (1.0 + h) * q / scale + n * (log_b1 - 0.5 * h)
    w = (1.0 + ha) / scale
    aw = w * qa
    m = aw + n * (np.abs(log_b1) + 0.5 * ha + 1.0)
    return value, _sums_bound(n, m, aw, w * pp)



def _cir_sums(xprev, xnext, delta, box):
    """CIR's table for ``_nested``, from the 9 sums of the closed form (sum
    D^2/x, x, 1/x, D, D/x, D^2/x^2, 1/x^2, D/x^2, log x) and 4 sums of
    absolute values for its bound (sum |D|, |D|/x, |D|/x^2, |log x|);
    columns: sum r^2/x and sum r^2/x^2, their forms of absolute values, and
    sum P^2/x and sum P^2/x^2 of ``_sums_bound``.  Then sum log x, sum
    |log x| and sum 1/x."""
    if not _in_sums_range(xprev, xnext, delta, box, positive=True):
        return None
    d = xnext - xprev
    ix = 1.0 / xprev
    d_x = d * ix
    dd_x = d * d_x
    d_xx = d_x * ix
    log_x = np.log(xprev)
    s_ddx, s_x, s_1x, s_d, s_dx = (dd_x.sum(-1), xprev.sum(-1), ix.sum(-1), d.sum(-1),
                                   d_x.sum(-1))
    s_ddxx, s_1xx, s_dxx, s_log = ((dd_x * ix).sum(-1), (ix * ix).sum(-1), d_xx.sum(-1),
                                   log_x.sum(-1))
    a_d, a_dx, a_dxx, a_log = (np.abs(d).sum(-1), np.abs(d_x).sum(-1), np.abs(d_xx).sum(-1),
                               np.abs(log_x).sum(-1))
    n = np.full_like(s_x, xprev.shape[-1])
    table = np.stack([
        [s_ddx, s_ddxx, s_ddx, s_ddxx, s_ddx + 2.0 * a_d + s_x, s_ddxx + 2.0 * a_dx + n],
        [s_d, s_dx, a_d, a_dx, 2.0 * (a_d + s_x), 2.0 * (a_dx + n)],
        [s_dx, s_dxx, a_dx, a_dxx, 2.0 * (a_dx + n), 2.0 * (a_dxx + s_1x)],
        [s_x, n, s_x, n, 4.0 * s_x, 4.0 * n],
        [2.0 * n, 2.0 * s_1x, 2.0 * n, 2.0 * s_1x, 8.0 * n, 8.0 * s_1x],
        [s_1x, s_1xx, s_1x, s_1xx, 4.0 * s_1x, 4.0 * s_1xx],
    ]).transpose(2, 0, 1)
    return np.concatenate([table.reshape(len(n), 36), np.stack([s_log, a_log, s_1x], -1)], -1)


def _cir_total(sums, n, delta, theta):
    """CIR's ql_total from its sums and the bound of ``_sums_bound``.

    With c_i = beta1^2 x_i and 1 - e_i = 1 + 3h/2 - h a2 / (2 x_i),
    T = ((1 + 3h/2) sum r^2/x - (h a2 / 2) sum r^2/x^2) / (2 delta beta1^2)
    + n log beta1 + sum log x / 2 + h (a2 sum 1/x / 4 - 3n/4), where
    sum r^2/x = sum D^2/x + h (2 (sum D - a2 sum D/x) + h (sum x - a2 (2n -
    a2 sum 1/x))) and sum r^2/x^2 = sum D^2/x^2 + h (2 (sum D/x - a2 sum
    D/x^2) + h (n - a2 (2 sum 1/x - a2 sum 1/x^2))).
    """
    a1, a2 = theta.alpha
    b1 = theta.beta[0]
    h = delta * a1
    ha, aa = np.abs(h), np.abs(a2)
    q1, q2, q1a, q2a, p1, p2 = _nested(
        sums[:, :36].reshape(-1, 6, 6), np.where(_CIR_SIGNED, h[:, None], ha[:, None]),
        np.where(_CIR_SIGNED, a2[:, None], -aa[:, None])).T
    s_log, a_log, s_1x = sums[:, 36:].T
    scale = 2.0 * delta * (b1 * b1)
    log_b1 = np.log(b1)
    value = (((1.0 + 1.5 * h) * q1 - 0.5 * h * a2 * q2) / scale
             + (n * log_b1 + 0.5 * s_log + h * (0.25 * a2 * s_1x - 0.75 * n)))
    w1, w2 = (1.0 + 3.0 * ha) / scale, ha * aa / scale
    aw = w1 * q1a + w2 * q2a
    m = aw + n * (np.abs(log_b1) + 1.0) + 0.5 * a_log + 0.5 * ha * (aa * s_1x + 3.0 * n)
    return value, _sums_bound(n, m, aw, w1 * p1 + w2 * p2)



def default_box() -> ParamBox:
    """Default compact parameter set for the built-in 3-parameter models."""
    return ParamBox(np.full(3, 0.01), np.full(3, 5.0))


def _check_builtin_box(box: ParamBox):
    if box.dim != 3:
        raise ConfigError("built-in models need a 3-dimensional box (m1=2, m2=1)")
    if box.lower[2] <= 0.0:
        raise ConfigError("diffusion parameter lower bound must be positive")


def make_ou(box: Optional[ParamBox] = None) -> Model:
    """Ornstein-Uhlenbeck / Vasicek: b = a1 (a2 - x), sigma = b1."""
    box = box if box is not None else default_box()
    _check_builtin_box(box)
    return Model(
        m1=2,
        m2=1,
        drift=_linear_drift,
        diff=_ou_diff,
        drift_dx=_linear_drift_dx,
        diffsq_dx=_zero,
        diffsq_dxx=_zero,
        state_domain=(-math.inf, math.inf),
        box=box,
        invariant_law=_ou_invariant,
        name="ou",
        path_sums=PathSums(_ou_sums, _ou_total, (
            _linear_drift, _ou_diff, _linear_drift_dx, _zero, _zero)),
    )


def make_cir(box: Optional[ParamBox] = None) -> Model:
    """Cox-Ingersoll-Ross: b = a1 (a2 - x), sigma = b1 sqrt(x), x > 0."""
    box = box if box is not None else default_box()
    _check_builtin_box(box)
    return Model(
        m1=2,
        m2=1,
        drift=_linear_drift,
        diff=_cir_diff,
        drift_dx=_linear_drift_dx,
        diffsq_dx=_cir_diffsq_dx,
        diffsq_dxx=_zero,
        state_domain=(0.0, math.inf),
        box=box,
        invariant_law=_cir_invariant,
        name="cir",
        path_sums=PathSums(_cir_sums, _cir_total, (
            _linear_drift, _cir_diff, _linear_drift_dx, _cir_diffsq_dx, _zero)),
    )


_BUILTINS = {"ou": make_ou, "cir": make_cir}


def make_model(model_id: str, box: Optional[ParamBox] = None) -> Model:
    """Construct a built-in model by identifier ("ou" or "cir")."""
    key = model_id.lower()
    if key not in _BUILTINS:
        raise ConfigError(f"unknown model id {model_id!r}; expected one of {sorted(_BUILTINS)}")
    return _BUILTINS[key](box)
