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

    def __post_init__(self):
        if self.box.dim != self.m1 + self.m2:
            raise ConfigError(
                f"box dimension {self.box.dim} != m1+m2 = {self.m1 + self.m2}"
            )

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
    )


_BUILTINS = {"ou": make_ou, "cir": make_cir}


def make_model(model_id: str, box: Optional[ParamBox] = None) -> Model:
    """Construct a built-in model by identifier ("ou" or "cir")."""
    key = model_id.lower()
    if key not in _BUILTINS:
        raise ConfigError(f"unknown model id {model_id!r}; expected one of {sorted(_BUILTINS)}")
    return _BUILTINS[key](box)
