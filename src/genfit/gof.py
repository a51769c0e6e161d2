"""Goodness-of-fit measures for a fitted family: information criteria, EDF
statistics, the Kolmogorov-Smirnov test, and the combined report."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

from .chains import _cdf, _log_density
from .mps_fit import SpacingContext, _log_spacings, _mean_log_spacing, moran_chi_square_test

__all__ = [
    "GofReport",
    "information_criteria",
    "edf_statistics",
    "ks_statistic",
    "ks_test",
    "full_report",
]

_U_LO = 1e-300
_U_HI = 1.0 - 1e-16


@dataclass(frozen=True)
class GofReport:
    aic: float
    caic: float
    bic: float
    hqic: float
    cm: float
    ad: float
    loglik: float
    moran: float
    ks_stat: float
    ks_p: float
    chi_statistic: float
    chi_critical: float
    chi_p: float
    edf_clamped: bool = False


def information_criteria(loglik: float, k: int, n: int):
    """(AIC, CAIC, BIC, HQIC).  CAIC is nan when n <= k + 1."""
    aic = 2.0 * k - 2.0 * loglik
    caic = aic + 2.0 * k * (k + 1.0) / (n - k - 1.0) if n > k + 1 else math.nan
    bic = k * math.log(n) - 2.0 * loglik if n >= 1 else math.nan
    hqic = 2.0 * k * math.log(math.log(n)) - 2.0 * loglik if n > 1 else math.nan
    return aic, caic, bic, hqic


def _clamp_u(u):
    clamped = bool(np.any((u <= 0.0) | (u >= 1.0)))
    return np.clip(u, _U_LO, _U_HI), clamped


def edf_statistics(cdf_at_data):
    """Cramer-von Mises and Anderson-Darling statistics from the fitted cdf
    values at the ascending order statistics."""
    u = np.sort(np.asarray(cdf_at_data, dtype=float))
    n = u.size
    u, clamped = _clamp_u(u)
    i = np.arange(1, n + 1)
    cm = 1.0 / (12.0 * n) + np.sum((u - (2.0 * i - 1.0) / (2.0 * n)) ** 2)
    ad = -n - np.mean((2.0 * i - 1.0) * (np.log(u) + np.log1p(-u[::-1])))
    return float(cm), float(ad), clamped


def ks_statistic(cdf_at_data):
    """D = max over both one-sided gaps between the EDF and the fitted cdf."""
    u = np.sort(np.asarray(cdf_at_data, dtype=float))
    n = u.size
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - u)
    d_minus = np.max(u - (i - 1.0) / n)
    return float(max(d_plus, d_minus))


def ks_test(cdf_at_data):
    """(D, asymptotic p-value)."""
    u = np.asarray(cdf_at_data, dtype=float)
    d = ks_statistic(u)
    p = float(sc.kolmogorov(math.sqrt(u.size) * d))
    return d, p


def full_report(data, family, base, params, location=True, sig_level=0.05) -> GofReport:
    """Evaluate every reported measure at a given parameter vector.

    The log-likelihood is evaluated at the same (MPS) estimate rather than a
    separate ML fit, matching the single-fit output structure.  Theta is
    resolved once, and one cdf and one log-density pass over the sorted data
    give every measure; Moran's tie terms are that log-density at the ties.
    """
    ctx = SpacingContext(np.asarray(data, dtype=float), family, base, location)
    n, k = ctx.n, ctx.k
    steps, mu = ctx.model.resolve(params)
    y = ctx.data - mu
    log_pdf, u = _log_density(steps, y), _cdf(steps, y)

    loglik = float(np.sum(log_pdf))
    aic, caic, bic, hqic = information_criteria(loglik, k, n)

    cm, ad, clamped = edf_statistics(u)
    ks_d, ks_p = ks_test(u)

    moran = -ctx.m * _mean_log_spacing(_log_spacings(u, ctx, log_pdf[ctx.tied]), ctx)
    chi = moran_chi_square_test(moran, n, k, sig_level)

    return GofReport(
        aic=aic,
        caic=caic,
        bic=bic,
        hqic=hqic,
        cm=cm,
        ad=ad,
        loglik=loglik,
        moran=moran,
        ks_stat=ks_d,
        ks_p=ks_p,
        chi_statistic=chi.statistic,
        chi_critical=chi.critical,
        chi_p=chi.p_value,
        edf_clamped=clamped,
    )
