"""Test statistics for the simple null H0: theta = theta0.

The headline statistic is n times the empirical L2-distance between the
per-observation quasi-loglikelihood terms at the fitted and the null
parameter.  Competitors: quasi-likelihood ratio, Wald, Rao score and two
phi-divergences (approximate Kullback-Leibler and the Balakrishnan-
Sanghvi ratio), plus the stepwise diffusion-then-drift pair.  All are
calibrated against chi-square limits or an empirical threshold.

The six statistics a power table can tabulate (T, GQLRT, WALD, RAO, AKL,
BS) are defined once, in ``_STATISTICS``: each kind's chi-square flag and
one value formula over ``_Pieces``, the per-path terms, information, score
and phi log-ratios, each computed on first use.  The public functions, the
Monte Carlo harness and the CLI all evaluate a kind through that registry;
GQLRT is the sum of the per-observation differences 2 sum(l_i(theta0) -
l_i(theta_hat)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import chi2_cdf, chi2_quantile, noncentral_chi2_cdf
from .errors import ConfigError, RaoUndefinedError, StatisticError
from .models import ParamVector
from .quasilik import InfoMatrix, QLContext, _drift_free, observed_info, ql_grad, ql_terms

__all__ = [
    "STATISTIC_KINDS",
    "TestReport",
    "empirical_l2_distance",
    "t_statistic",
    "gqlrt_statistic",
    "wald_statistic",
    "rao_statistic",
    "phi_divergence_statistic",
    "stepwise_beta",
    "stepwise_alpha",
    "power_approximation",
    "report_csv_header",
    "report_csv_row",
]

_LOG_RATIO_CAP = 300.0


@dataclass(frozen=True)
class TestReport:
    kind: str
    statistic: float
    df: int
    threshold: float
    p_value: float  # nan when no asymptotic calibration exists (BS)
    reject: bool
    theta_hat: Optional[ParamVector]
    theta_null: Optional[ParamVector]
    saturated_terms: int = 0


def _chi2_calibrated(kind) -> bool:
    """Whether the null law of ``kind`` is chi-square; the stepwise kinds,
    which no power table tabulates, are."""
    return kind not in _STATISTICS or _STATISTICS[kind].chi2


def _chi2_threshold(kind, level, df) -> float:
    """The chi-square (1 - level)-quantile that calibrates ``kind``."""
    if not _chi2_calibrated(kind):
        raise ConfigError(f"{kind} has no asymptotic calibration; supply an empirical threshold")
    return chi2_quantile(1.0 - level, df)


def _check_level(level):
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must lie in (0, 1), got {level!r}")


def _finish(kind, stat, df, level, threshold, theta_hat, theta_null, saturated=0):
    _check_level(level)
    if threshold is not None and not math.isfinite(threshold):
        raise ConfigError(f"threshold must be finite, got {threshold!r}")
    if not math.isfinite(stat):
        raise StatisticError(f"{kind} statistic is non-finite")
    if threshold is None:
        threshold = _chi2_threshold(kind, level, df)
    # a negative value lies below the support of the chi-square law: p-value 1
    p_value = 1.0 - chi2_cdf(max(stat, 0.0), df) if _chi2_calibrated(kind) else math.nan
    return TestReport(
        kind=kind,
        statistic=float(stat),
        df=df,
        threshold=float(threshold),
        p_value=p_value,
        reject=bool(stat > threshold),
        theta_hat=theta_hat,
        theta_null=theta_null,
        saturated_terms=saturated,
    )


def empirical_l2_distance(ctx: QLContext, theta1: ParamVector, theta2: ParamVector) -> float:
    """Mean squared difference of per-observation terms; symmetric, >= 0."""
    ctx.model.check_theta(theta1)
    ctx.model.check_theta(theta2)
    diff = ql_terms(ctx, theta1) - ql_terms(ctx, theta2)
    return float(np.mean(diff * diff))


def _rate_sqrt(ctx: QLContext) -> np.ndarray:
    """diag of phi(n)^{-1/2}: sqrt(n delta) for alpha, sqrt(n) for beta."""
    n, delta = ctx.path.n, ctx.path.delta
    m1, m2 = ctx.model.m1, ctx.model.m2
    return np.concatenate(
        [np.full(m1, math.sqrt(n * delta)), np.full(m2, math.sqrt(n))]
    )


def _phi_ratios(ctx, theta_hat, theta0):
    logr = ql_terms(ctx, theta0) - ql_terms(ctx, theta_hat)
    saturated = int(np.sum(np.abs(logr) > _LOG_RATIO_CAP))
    logr = np.clip(logr, -_LOG_RATIO_CAP, _LOG_RATIO_CAP)
    return logr, np.exp(logr), saturated


class _Pieces:
    """What the tabulated statistics are made of, on one path, fit and null.

    ``diff`` holds l_i(theta0) - l_i(theta_hat), ``info`` the observed
    information at theta_hat, ``score`` the rate-scaled gradient at theta0
    and ``phi`` the capped log-ratios, ratios and saturated count.  Each is
    computed on first use with the callables the caller passes in, so the
    calls go through the caller's module bindings, and at most once: a piece
    that raised raises the same error again.
    """

    def __init__(self, ctx, theta_hat, theta0, terms, info, grad, phi_ratios):
        self.ctx, self.theta_hat, self.theta0 = ctx, theta_hat, theta0
        self._make = {
            "diff": lambda: terms(ctx, theta0) - terms(ctx, theta_hat),
            "info": lambda: info(ctx, theta_hat).full(),
            "score": lambda: grad(ctx, theta0) / _rate_sqrt(ctx),
            "phi": lambda: phi_ratios(ctx, theta_hat, theta0),
        }
        self._made = {}

    def _get(self, name):
        if name not in self._made:
            try:
                self._made[name] = (self._make[name](), None)
            except Exception as exc:
                self._made[name] = (None, exc)
        value, exc = self._made[name]
        if exc is not None:
            raise exc
        return value

    diff = property(lambda self: self._get("diff"))
    info = property(lambda self: self._get("info"))
    score = property(lambda self: self._get("score"))
    phi = property(lambda self: self._get("phi"))

    @property
    def saturated(self) -> int:
        """Saturated log-ratios, 0 unless a phi-divergence was evaluated."""
        return self.phi[2] if "phi" in self._made else 0


def _t(p: _Pieces) -> float:
    return p.ctx.path.n * float(np.mean(p.diff * p.diff))


def _gqlrt(p: _Pieces) -> float:
    return 2.0 * float(np.sum(p.diff))


def _wald(p: _Pieces) -> float:
    if not np.all(np.isfinite(p.info)):
        raise StatisticError("observed information is non-finite")
    z = _rate_sqrt(p.ctx) * (p.theta_hat.full - p.theta0.full)
    return float(z @ p.info @ z)


def _rao(p: _Pieces) -> float:
    if not np.all(np.isfinite(p.info)) or np.linalg.cond(p.info) > 1e12:
        raise RaoUndefinedError("observed information matrix is singular")
    return float(p.score @ np.linalg.solve(p.info, p.score))


def _akl(p: _Pieces) -> float:
    logr, r, _ = p.phi
    return 2.0 * float(np.sum(1.0 - r + r * logr))


def _bs(p: _Pieces) -> float:
    _, r, _ = p.phi
    return 2.0 * float(np.sum(((r - 1.0) / (r + 1.0)) ** 2))


@dataclass(frozen=True)
class _Statistic:
    chi2: bool  # the null law is chi-square, so an asymptotic calibration exists
    value: Callable[[_Pieces], float]


# the kinds a power table can tabulate, in table order (the stepwise tests
# are single-shot diagnostics, not power-table columns)
_STATISTICS = {
    "T": _Statistic(True, _t),
    "GQLRT": _Statistic(True, _gqlrt),
    "WALD": _Statistic(True, _wald),
    "RAO": _Statistic(True, _rao),
    "AKL": _Statistic(True, _akl),
    "BS": _Statistic(False, _bs),
}

STATISTIC_KINDS = (*_STATISTICS, "STEP_BETA", "STEP_ALPHA")


def _report(kind, ctx, theta_hat, theta0, level, threshold) -> TestReport:
    """The test report of a tabulated kind, its pieces from this module's bindings."""
    ctx.model.check_theta(theta_hat)
    ctx.model.check_theta(theta0)
    pieces = _Pieces(ctx, theta_hat, theta0, ql_terms, observed_info, ql_grad, _phi_ratios)
    stat = _STATISTICS[kind].value(pieces)
    df = ctx.model.m1 + ctx.model.m2
    return _finish(kind, stat, df, level, threshold, theta_hat, theta0, pieces.saturated)


def t_statistic(ctx, theta_hat, theta0, level=0.05, threshold=None) -> TestReport:
    """n times the empirical L2-distance between fitted and null terms."""
    return _report("T", ctx, theta_hat, theta0, level, threshold)


def gqlrt_statistic(ctx, theta_hat, theta0, level=0.05, threshold=None) -> TestReport:
    """Quasi-likelihood ratio 2 sum(l_i(theta0) - l_i(theta_hat)), >= 0 at the minimizer."""
    return _report("GQLRT", ctx, theta_hat, theta0, level, threshold)


def wald_statistic(ctx, theta_hat, theta0, level=0.05, threshold=None) -> TestReport:
    """Rate-scaled quadratic form in (theta_hat - theta0)."""
    return _report("WALD", ctx, theta_hat, theta0, level, threshold)


def rao_statistic(ctx, theta_hat, theta0, level=0.05, threshold=None) -> TestReport:
    """Score statistic; theta_hat enters only through the information."""
    return _report("RAO", ctx, theta_hat, theta0, level, threshold)


def phi_divergence_statistic(
    ctx, theta_hat, theta0, phi_kind, level=0.05, threshold=None
) -> TestReport:
    """2 * sum phi(r_i) with per-observation quasi-likelihood ratios r_i.

    AKL: phi(x) = 1 - x + x log x (chi-square calibrated).
    BS:  phi(x) = ((x - 1)/(x + 1))^2 (empirical threshold only).
    """
    kind = phi_kind.upper()
    if kind not in ("AKL", "BS"):
        raise ConfigError(f"unknown phi-divergence kind {phi_kind!r}")
    return _report(kind, ctx, theta_hat, theta0, level, threshold)


def stepwise_beta(ctx, beta_tilde, beta0, level=0.05, threshold=None) -> TestReport:
    """First-stage test of the diffusion block against beta0: sum (2 dl_i)^2,
    dl_i the drift-free terms at beta_tilde less those at beta0 (alpha at the box center)."""
    model = ctx.model
    alpha_c = model.box.center()[: model.m1]
    theta_tilde = ParamVector(alpha_c, beta_tilde)
    theta_null = ParamVector(alpha_c, beta0)
    model.check_theta(theta_tilde)
    model.check_theta(theta_null)
    free = _drift_free(ctx)
    diff = 2.0 * (ql_terms(free, theta_tilde) - ql_terms(free, theta_null))
    stat = float(np.sum(diff * diff))
    return _finish("STEP_BETA", stat, model.m2, level, threshold, theta_tilde, theta_null)


def stepwise_alpha(ctx, alpha_tilde, alpha0, beta_tilde, level=0.05, threshold=None) -> TestReport:
    """Second-stage test of the drift block at the pre-estimated beta."""
    model = ctx.model
    theta_tilde = ParamVector(alpha_tilde, beta_tilde)
    theta_null = ParamVector(alpha0, beta_tilde)
    model.check_theta(theta_tilde)
    model.check_theta(theta_null)
    diff = ql_terms(ctx, theta_tilde) - ql_terms(ctx, theta_null)
    stat = float(np.sum(diff * diff))
    return _finish("STEP_ALPHA", stat, model.m1, level, threshold, theta_tilde, theta_null)


def power_approximation(h, info: InfoMatrix, level: float, df: int) -> float:
    """Local-alternative power: 1 - F_nc(chi2 quantile) at lambda = h'Ih.

    Raises ConfigError for a level outside (0, 1), or an h that is not a
    finite vector of the information's dimension.
    """
    _check_level(level)
    full = info.full()
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if h.shape != full.shape[:1]:
        raise ConfigError(f"h must have length {full.shape[0]}, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ConfigError(f"h must be finite, got {h}")
    lam = float(h @ full @ h)
    if lam < 0.0:
        # numerically indefinite information; clip to the null case
        lam = 0.0
    crit = chi2_quantile(1.0 - level, df)
    return 1.0 - noncentral_chi2_cdf(crit, df, lam)


def report_csv_header() -> str:
    return "kind,n,delta,statistic,df,threshold,p_value,reject"


def report_csv_row(report: TestReport, n: int, delta: float) -> str:
    return ",".join(
        [
            report.kind,
            str(n),
            repr(float(delta)),
            repr(report.statistic),
            str(report.df),
            repr(report.threshold),
            "nan" if math.isnan(report.p_value) else repr(report.p_value),
            "true" if report.reject else "false",
        ]
    )
