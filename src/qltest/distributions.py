"""Chi-square distribution functions on ``scipy.special``.

Central CDF ``chdtr``, quantile ``gammaincinv`` (the chi-square law with df
degrees of freedom is the gamma law with shape df/2 and scale 2), and
noncentral CDF ``chndtr``.  The wrappers accept integer df only and keep
this module's argument checks; scipy would accept a fractional df silently.
The scalar ufuncs are used rather than ``scipy.stats.chi2``/``ncx2``, whose
frozen-distribution methods cost tens of microseconds per call.
"""

from __future__ import annotations

import math

from scipy.special import chdtr, chndtr, gammaincinv

__all__ = ["chi2_cdf", "chi2_pdf", "chi2_quantile", "noncentral_chi2_cdf"]


def _check_df(df: int) -> int:
    if int(df) != df or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    return int(df)


def chi2_cdf(x: float, df: int) -> float:
    """P(X <= x) for a central chi-square with df degrees of freedom."""
    df = _check_df(df)
    if x < 0:
        raise ValueError("chi-square CDF argument must be nonnegative")
    return float(chdtr(df, x))


def chi2_pdf(x: float, df: int) -> float:
    df = _check_df(df)
    if x < 0:
        raise ValueError("chi-square density argument must be nonnegative")
    if x == 0.0:
        return 0.5 if df == 2 else (math.inf if df == 1 else 0.0)
    a = 0.5 * df
    return math.exp((a - 1.0) * math.log(x) - 0.5 * x - a * math.log(2.0) - math.lgamma(a))


def chi2_quantile(p: float, df: int) -> float:
    """Inverse of chi2_cdf in p."""
    df = _check_df(df)
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    return 2.0 * float(gammaincinv(0.5 * df, p))


def noncentral_chi2_cdf(x: float, df: int, lam: float) -> float:
    """P(X <= x) for a chi-square with df degrees of freedom and noncentrality lam."""
    df = _check_df(df)
    if x < 0:
        raise ValueError("noncentral chi-square CDF argument must be nonnegative")
    if lam < 0:
        raise ValueError("noncentrality must be nonnegative")
    if lam > 1e6:
        raise ValueError("noncentrality above 1e6 is outside the supported range")
    if lam == 0.0:
        # chndtr at lam = 0 can differ from chdtr in the last bit
        return chi2_cdf(x, df)
    return float(chndtr(x, df, lam))
