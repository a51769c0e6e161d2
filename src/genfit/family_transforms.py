"""The 24 generator families.

Each family is a cdf-valued transform h: [0,1] -> [0,1] with one to three
induced shape parameters.  A composed distribution has cdf h(G(x)) where G is
a shifted base cdf, pdf h'(G(x)) g(x), and quantile G^{-1}(h^{-1}(p)).

Kernels.  ``h(u, omu, lsf, *induced)`` and ``log_h_prime(u, omu, lsf,
*induced)`` receive the triple ``(u, 1 - u, -ln(1 - u))``; the family log-pdf
is ``log_h_prime(G(x)) + log g(x)``.  ``h_inv(p, *induced)`` returns the pair
``(u, -ln(1 - u))`` at the u with h(u) = p, inverting its special function
once.

Precision rule.  Each element of the triple is taken from the side that holds
the precision: below the median of G, ``1 - u`` and ``-ln(1 - u)`` come from
``u``; above it, from the base survival value (``_base_tail``).  A kernel
builds a quantity that cancels in one tail from the element that is precise
there: ``1 - (1 - u)^a`` as ``-expm1(-a lsf)``, not from ``omu``.
``family_quantile`` follows the same split: the base quantile of ``u`` where
u <= 1/2, the base inverse survival of ``-ln(1 - u)`` above.

Checking.  A public function resolves the names and checks the count and
every domain of theta once (``_resolve``, or ``_resolve_family`` for the
``h_*`` functions); the private cores it hands the specs to never check again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special as sc

from .base_distributions import (
    _base_tail,
    _check_shape,
    _invert,
    _log_hazard,
    _on_support,
    _scalar,
    get_base,
)
from .special_functions import (
    inv_reg_inc_beta,
    inv_reg_inc_gamma_lower,
    log_beta,
    log_gamma,
    reg_inc_beta,
    reg_inc_gamma_lower,
    reg_inc_gamma_upper,
)

__all__ = [
    "FAMILIES",
    "FamilySpec",
    "get_family",
    "h_forward",
    "log_h_prime",
    "h_inverse",
    "family_log_pdf",
    "family_pdf",
    "family_cdf",
    "family_quantile",
    "family_sample",
    "n_total_params",
]

_xlogy = sc.xlogy


def _log1m_exp(x):
    """ln(1 - e^-x) for x >= 0, accurate at both ends."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.log(-np.expm1(-np.minimum(x, 0.6931471805599453)))
        large = np.log1p(-np.exp(-np.maximum(x, 0.6931471805599453)))
    return np.where(x < 0.6931471805599453, small, large)


def _neg_log_u(u, omu):
    """-ln u, from u itself below 1/2 and from omu = 1 - u above.

    Below 1/2 the caller's u is the precise input, and 1 - u would carry a
    relative error of eps/u into ln u.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(u < 0.5, np.log(u), np.log1p(-np.asarray(omu, dtype=float)))


def _log_neg_log_u(t, omu, lsf):
    """ln t for t = _neg_log_u(u, omu), finite past the underflow of omu.

    Near u = 1 the exact -ln u equals omu to first order, so its log is -lsf
    even when omu itself has underflowed to zero.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.asarray(omu) < 1e-8, -np.asarray(lsf, dtype=float), np.log(t))


def _log_one_minus_upow(u, omu, lsf, a):
    """ln(1 - u^a), finite past the underflow of u and of omu = 1 - u.

    Writes 1 - u^a = 1 - e^{-a t} with t = -ln u; deep in the right tail
    this is a t to first order, so its log is ln a + ln t computed from lsf.
    """
    t = _neg_log_u(u, omu)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        deep = math.log(a) + _log_neg_log_u(t, omu, lsf)
        mid = _log1m_exp(a * t)
    return np.where(deep < -30.0, deep, mid)


@dataclass(frozen=True)
class FamilySpec:
    """One generator transform and its induced-parameter metadata."""

    name: str
    param_names: tuple[str, ...]
    # open interval per induced parameter
    domains: tuple[tuple[float, float], ...]
    h: Callable          # h(u, omu, lsf, *induced); lsf = -ln(omu)
    log_h_prime: Callable  # log_h_prime(u, omu, lsf, *induced)
    h_inv: Callable      # h_inv(p, *induced) -> (u, -ln(1 - u)) with h(u) = p
    # optional ln(h'(u) * (1 - u)), for transforms whose h' grows like
    # 1/(1 - u); pairing it with the base log-hazard avoids the huge
    # cancelling +/- ln(sf) terms in the composite log-density
    log_h_prime_sf: Callable | None = None

    @property
    def n_induced(self) -> int:
        return len(self.param_names)


_POS = (0.0, math.inf)


# --- betaexpg --------------------------------------------------------------

def _betaexpg_h(u, omu, lsf, a, b, d):
    return 1.0 - reg_inc_beta(np.exp(d * np.log(omu)), a, b)


def _betaexpg_lhp(u, omu, lsf, a, b, d):
    s = -d * lsf
    return (
        math.log(d)
        - log_beta(a, b)
        + _xlogy(b - 1.0, -np.expm1(s))
        - (a * d - 1.0) * lsf
    )


def _betaexpg_hinv(p, a, b, d):
    # (1 - u)^d = y with I_y(a, b) = 1 - p: invert for y from 1 - p near
    # p = 1 and for 1 - y (I_{1-y}(b, a) = p) from p below, where y nears 1
    right = p > reg_inc_beta(0.5, b, a)
    w = inv_reg_inc_beta(np.where(right, 1.0 - p, p), np.where(right, a, b), np.where(right, b, a))
    lsf = np.where(right, -np.log(w), -np.log1p(-w)) / d
    return -np.expm1(-lsf), lsf


# --- betag -----------------------------------------------------------------

def _betag_h(u, omu, lsf, a, b):
    return reg_inc_beta(u, a, b)


def _betag_lhp(u, omu, lsf, a, b):
    return _xlogy(a - 1.0, u) - (b - 1.0) * lsf - log_beta(a, b)


def _betag_hinv(p, a, b):
    # I_u(a, b) = p  <=>  I_{1-u}(b, a) = 1 - p: invert for 1 - u above the
    # median of u, where u itself cannot carry the precision
    right = p > reg_inc_beta(0.5, a, b)
    w = inv_reg_inc_beta(np.where(right, 1.0 - p, p), np.where(right, b, a), np.where(right, a, b))
    return np.where(right, 1.0 - w, w), np.where(right, -np.log(w), -np.log1p(-w))


# --- expexppg --------------------------------------------------------------

def _expexppg_h(u, omu, lsf, a, b):
    return np.expm1(-b * u**a) / np.expm1(-b)


def _expexppg_lhp(u, omu, lsf, a, b):
    return (
        math.log(a * b)
        + _xlogy(a - 1.0, u)
        - b * u**a
        - math.log(-math.expm1(-b))
    )


def _expexppg_hinv(p, a, b):
    inner = -np.log1p(p * math.expm1(-b)) / b
    return inner ** (1.0 / a), -np.log(-np.expm1(np.log(inner) / a))


# --- expg ------------------------------------------------------------------

def _expg_h(u, omu, lsf, a):
    return u**a


def _expg_lhp(u, omu, lsf, a):
    return math.log(a) + _xlogy(a - 1.0, u)


def _expg_hinv(p, a):
    return p ** (1.0 / a), -np.log(-np.expm1(np.log(p) / a))


# --- expgg -----------------------------------------------------------------

def _expgg_h(u, omu, lsf, a, b):
    return (-np.expm1(-a * lsf)) ** b


def _expgg_lhp(u, omu, lsf, a, b):
    return (
        math.log(a * b)
        + _xlogy(a - 1.0, omu)
        + _xlogy(b - 1.0, -np.expm1(-a * lsf))
    )


def _expgg_hinv(p, a, b):
    s = np.exp(np.log(p) / b)  # 1 - (1 - u)^a
    # ln(1 - s) from s where it is small, from 1 - s = -expm1(ln p / b) above
    lsf = np.where(s < 0.5, -np.log1p(-s) / a, -np.log((-np.expm1(np.log(p) / b)) ** (1.0 / a)))
    return -np.expm1(-lsf), lsf


# --- expkumg ---------------------------------------------------------------

def _expkumg_h(u, omu, lsf, a, b, d):
    w = u**a
    return (-np.expm1(b * np.log1p(-w))) ** d


def _expkumg_lhp(u, omu, lsf, a, b, d):
    l1 = _log_one_minus_upow(u, omu, lsf, a)  # ln(1 - u^a)
    la = _xlogy(a, u)  # ln u^a
    # ln(1 - (1 - u^a)^b), which is ln b + ln u^a once u^a underflows
    l2 = np.where(la < -700.0, math.log(b) + la, _log1m_exp(-b * l1))
    return math.log(a * b * d) + _xlogy(a - 1.0, u) + (b - 1.0) * l1 + (d - 1.0) * l2


def _expkumg_hinv(p, a, b, d):
    inner = -np.expm1(np.log1p(-p ** (1.0 / d)) / b)
    return inner ** (1.0 / a), -np.log(-np.expm1(np.log(inner) / a))


# --- gammag ----------------------------------------------------------------

def _gammag_h(u, omu, lsf, a):
    return reg_inc_gamma_lower(lsf, a)


def _gammag_lhp(u, omu, lsf, a):
    return _xlogy(a - 1.0, lsf) - log_gamma(a)


def _gammag_hinv(p, a):
    t = inv_reg_inc_gamma_lower(p, a)
    return -np.expm1(-t), t


# --- gammag1 ---------------------------------------------------------------

def _gammag1_h(u, omu, lsf, a):
    with np.errstate(divide="ignore"):
        t = -np.log(u)
    return reg_inc_gamma_upper(t, a)


def _gammag1_lhp(u, omu, lsf, a):
    return (a - 1.0) * _log_neg_log_u(_neg_log_u(u, omu), omu, lsf) - log_gamma(a)


def _gammag1_hinv(p, a):
    t = inv_reg_inc_gamma_lower(1.0 - p, a)
    return np.exp(-t), -np.log(-np.expm1(-t))


# --- gammag2 ---------------------------------------------------------------

def _gammag2_h(u, omu, lsf, a):
    with np.errstate(divide="ignore"):
        t = u / omu
    return reg_inc_gamma_lower(t, a)


def _gammag2_lhp(u, omu, lsf, a):
    with np.errstate(divide="ignore"):
        t = u / omu
    return _xlogy(a - 1.0, t) - t + 2.0 * lsf - log_gamma(a)


def _gammag2_hinv(p, a):
    t = inv_reg_inc_gamma_lower(p, a)
    return t / (1.0 + t), -np.log(1.0 / (1.0 + t))


# --- gbetag ----------------------------------------------------------------

def _gbetag_h(u, omu, lsf, a, b, d):
    return reg_inc_beta(u**d, a, b)


def _gbetag_lhp(u, omu, lsf, a, b, d):
    return (
        math.log(d)
        - log_beta(a, b)
        + _xlogy(a * d - 1.0, u)
        + (b - 1.0) * _log_one_minus_upow(u, omu, lsf, d)
    )


def _gbetag_hinv(p, a, b, d):
    y = inv_reg_inc_beta(p, a, b)
    return y ** (1.0 / d), -np.log(-np.expm1(np.log(y) / d))


# --- gexppg ----------------------------------------------------------------

def _gexppg_den(omu, a, b):
    return -math.expm1(-a) - b * (-np.expm1(-a * omu))


def _gexppg_h(u, omu, lsf, a, b):
    # e^{-a omu} - e^{-a} = e^{-a} expm1(a u), without the left-tail cancellation
    return math.exp(-a) * np.expm1(a * u) / _gexppg_den(omu, a, b)


def _gexppg_lhp(u, omu, lsf, a, b):
    den = _gexppg_den(omu, a, b)
    return (
        math.log(a)
        + math.log1p(-b)
        + math.log(-math.expm1(-a))
        - a * omu
        - 2.0 * np.log(den)
    )


def _gexppg_hinv(p, a, b):
    # z = e^{-a(1 - u)} = e^{-a} + x (1 - e^{-a}) with x = p (1 - b) / (1 - p b):
    # ln z from z, or near z = 1 from 1 - z = (1 - p)(1 - e^{-a}) / (1 - p b);
    # u from a u = ln(1 + x (e^a - 1)) below 1/2, where 1 - (1 - u) cancels
    q = 1.0 - p * b
    x, omz = p * (1.0 - b) / q, (1.0 - p) * -math.expm1(-a) / q
    omu = -np.where(omz < 0.5, np.log1p(-omz), np.log(math.exp(-a) + x * -math.expm1(-a))) / a
    u = np.log1p(x * np.expm1(a)) / a
    u = np.where(u < 0.5, u, 1.0 - omu)
    return u, np.where(u < 0.5, -np.log1p(-u), -np.log(omu))


# --- gmbetaexpg ------------------------------------------------------------

def _gmbetaexpg_h(u, omu, lsf, a, b):
    with np.errstate(divide="ignore", over="ignore"):
        t = u / omu
        return (-np.expm1(-b * t)) ** a


def _gmbetaexpg_lhp(u, omu, lsf, a, b):
    with np.errstate(divide="ignore", over="ignore"):
        t = u / omu
        return (
            math.log(a * b)
            + 2.0 * lsf
            - b * t
            + _xlogy(a - 1.0, -np.expm1(-b * t))
        )


def _gmbetaexpg_hinv(p, a, b):
    t = -np.log1p(-np.exp(np.log(p) / a)) / b
    return t / (1.0 + t), -np.log(1.0 / (1.0 + t))


# --- gtransg ---------------------------------------------------------------

def _gtransg_h(u, omu, lsf, a, b):
    return (u * (1.0 + b * omu)) ** a


def _gtransg_lhp(u, omu, lsf, a, b):
    return (
        math.log(a)
        + _xlogy(a - 1.0, u)
        + np.log(1.0 + b - 2.0 * b * u)
        + _xlogy(a - 1.0, 1.0 + b * omu)
    )


def _gtransg_hinv(p, a, b):
    s = np.asarray(p, dtype=float) ** (1.0 / a)
    oms = -np.expm1(np.log(p) / a)  # 1 - s
    if abs(b) < 1e-12:
        return s, -np.log(oms)
    # positive roots, written cancellation-free, of b u^2 - (1+b) u + s = 0
    # and of b w^2 + (1-b) w - (1-s) = 0 for w = 1 - u
    u = 2.0 * s / (1.0 + b + np.sqrt((1.0 + b) ** 2 - 4.0 * b * s))
    return u, -np.log(2.0 * oms / (1.0 - b + np.sqrt((1.0 - b) ** 2 + 4.0 * b * oms)))


# --- gxlogisticg -----------------------------------------------------------

def _gxlogisticg_h(u, omu, lsf, a):
    with np.errstate(divide="ignore"):
        lt = np.log(lsf)
    return sc.expit(a * lt)


def _gxlogisticg_lhp(u, omu, lsf, a):
    t = lsf
    with np.errstate(divide="ignore"):
        lt = np.log(t)
    return (
        math.log(a)
        + _xlogy(a - 1.0, t)
        - 2.0 * np.logaddexp(0.0, a * lt)
        + lsf
    )


def _gxlogisticg_lhp_sf(u, omu, lsf, a):
    # ln(h'(u) * (1 - u)): the lhp above minus its +lsf term
    with np.errstate(divide="ignore"):
        lt = np.log(lsf)
    return math.log(a) + _xlogy(a - 1.0, lsf) - 2.0 * np.logaddexp(0.0, a * lt)


def _gxlogisticg_hinv(p, a):
    t = np.exp(sc.logit(p) / a)
    return -np.expm1(-t), t


# --- kumg ------------------------------------------------------------------

def _kumg_h(u, omu, lsf, a, b):
    return -np.expm1(b * np.log1p(-(u**a)))


def _kumg_lhp(u, omu, lsf, a, b):
    l1 = _log_one_minus_upow(u, omu, lsf, a)  # ln(1 - u^a)
    return math.log(a * b) + _xlogy(a - 1.0, u) + (b - 1.0) * l1


def _kumg_hinv(p, a, b):
    inner = -np.expm1(np.log1p(-p) / b)
    return inner ** (1.0 / a), -np.log(-np.expm1(np.log(inner) / a))


# --- loggammag1 ------------------------------------------------------------

def _loggammag1_h(u, omu, lsf, a, b):
    return reg_inc_gamma_lower(b * lsf, a)


def _loggammag1_lhp(u, omu, lsf, a, b):
    return (
        a * math.log(b)
        - log_gamma(a)
        + _xlogy(a - 1.0, lsf)
        - (b - 1.0) * lsf
    )


def _loggammag1_hinv(p, a, b):
    t = inv_reg_inc_gamma_lower(p, a) / b
    return -np.expm1(-t), t


# --- loggammag2 ------------------------------------------------------------

def _loggammag2_h(u, omu, lsf, a, b):
    with np.errstate(divide="ignore"):
        t = -np.log(u)
    return reg_inc_gamma_upper(b * t, a)


def _loggammag2_lhp(u, omu, lsf, a, b):
    log_t = _log_neg_log_u(_neg_log_u(u, omu), omu, lsf)  # ln(-ln u)
    return a * math.log(b) - log_gamma(a) + (a - 1.0) * log_t + _xlogy(b - 1.0, u)


def _loggammag2_hinv(p, a, b):
    t = inv_reg_inc_gamma_lower(1.0 - p, a) / b
    return np.exp(-t), -np.log(-np.expm1(-t))


# --- mbetag ----------------------------------------------------------------

def _mbetag_h(u, omu, lsf, a, b, d):
    s = d * u / (1.0 - (1.0 - d) * u)
    return reg_inc_beta(np.clip(s, 0.0, 1.0), a, b)


def _mbetag_lhp(u, omu, lsf, a, b, d):
    return (
        a * math.log(d)
        + _xlogy(a - 1.0, u)
        - (b - 1.0) * lsf
        - log_beta(a, b)
        - (a + b) * np.log(1.0 - (1.0 - d) * u)
    )


def _mbetag_hinv(p, a, b, d):
    y = inv_reg_inc_beta(p, a, b)
    return y / (d + (1.0 - d) * y), -np.log(d * (1.0 - y) / (d + (1.0 - d) * y))


# --- mog -------------------------------------------------------------------

def _mog_h(u, omu, lsf, a):
    return u / (u + a * omu)


def _mog_lhp(u, omu, lsf, a):
    return math.log(a) - 2.0 * np.log(u + a * omu)


def _mog_hinv(p, a):
    omp = 1.0 - np.asarray(p, dtype=float)
    den = a + (1.0 - a) * omp
    u = a * p / den
    return u, np.where(u < 0.5, -np.log1p(-u), -np.log(omp / den))


# --- mokumg ----------------------------------------------------------------

def _mokumg_h(u, omu, lsf, a, b, d):
    v = np.exp(b * np.log1p(-(u**a)))
    return (1.0 - v) / (1.0 - v + d * v)


def _mokumg_lhp(u, omu, lsf, a, b, d):
    l1 = _log_one_minus_upow(u, omu, lsf, a)  # ln(1 - u^a)
    with np.errstate(over="ignore"):
        v = np.exp(b * l1)  # (1 - u^a)^b
    return (
        math.log(a * b * d)
        + _xlogy(a - 1.0, u)
        + (b - 1.0) * l1
        - 2.0 * np.log(1.0 - (1.0 - d) * v)
    )


def _mokumg_hinv(p, a, b, d):
    omp = 1.0 - np.asarray(p, dtype=float)
    w = omp / (d + (1.0 - d) * omp)
    inner = -np.expm1(np.log(w) / b)
    return inner ** (1.0 / a), -np.log(-np.expm1(np.log(inner) / a))


# --- ologlogg --------------------------------------------------------------

def _ologlogg_w(u, omu, lsf, d):
    # w = u^d / (u^d + (1-u)^d), the odds transform
    with np.errstate(divide="ignore", over="ignore"):
        return sc.expit(d * (np.log(u) + lsf))


def _ologlogg_h(u, omu, lsf, a, b, d):
    w = _ologlogg_w(u, omu, lsf, d)
    with np.errstate(divide="ignore"):
        wa = np.exp(a * np.log(w))
    return -np.expm1(b * np.log1p(-wa))


def _ologlogg_lhp(u, omu, lsf, a, b, d):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = d * (np.log(u) + lsf)  # logit of the odds transform w
        lnw = -np.logaddexp(0.0, -z)
        # ln(1 - w^a): for large z, 1 - w^a ~ a e^-z
        l1 = np.where(z > 700.0, math.log(a) - z, _log1m_exp(-a * lnw))
    return (
        math.log(a * b * d)
        + _xlogy(a * d - 1.0, u)
        - (d - 1.0) * lsf
        - (a + 1.0) * np.log(u**d + omu**d)
        + (b - 1.0) * l1
    )


def _ologlogg_hinv(p, a, b, d):
    w = (-np.expm1(np.log1p(-p) / b)) ** (1.0 / a)
    z = sc.logit(w) / d
    return sc.expit(z), -np.log(sc.expit(-z))


# --- texpsg ----------------------------------------------------------------

def _texpsg_h(u, omu, lsf, a):
    return np.expm1(-a * u) / math.expm1(-a)


def _texpsg_lhp(u, omu, lsf, a):
    return math.log(a) - a * u - math.log(-math.expm1(-a))


def _texpsg_hinv(p, a):
    p = np.asarray(p, dtype=float)
    # 1 - u = log(p + (1-p) e^a) / a, evaluated in log space
    omu = np.logaddexp(np.log(p), np.log1p(-p) + a) / a
    return -np.log1p(p * math.expm1(-a)) / a, -np.log(omu)


# --- weibullextg -----------------------------------------------------------

def _weibullextg_h(u, omu, lsf, a, b):
    with np.errstate(divide="ignore", over="ignore"):
        t = u / omu
        return -np.expm1(-a * t ** (1.0 / b))


def _weibullextg_lhp(u, omu, lsf, a, b):
    with np.errstate(divide="ignore", over="ignore"):
        t = u / omu
        return (
            math.log(a / b)
            + 2.0 * lsf
            + _xlogy(1.0 / b - 1.0, t)
            - a * t ** (1.0 / b)
        )


def _weibullextg_hinv(p, a, b):
    t = (-np.log1p(-np.asarray(p, dtype=float)) / a) ** b
    return t / (1.0 + t), -np.log(1.0 / (1.0 + t))


# --- weibullg --------------------------------------------------------------

def _weibullg_h(u, omu, lsf, a, b):
    t = lsf
    return -np.expm1(-((t / b) ** a))


def _weibullg_lhp(u, omu, lsf, a, b):
    t = lsf
    return (
        math.log(a)
        - a * math.log(b)
        + _xlogy(a - 1.0, t)
        - (t / b) ** a
        + lsf
    )


def _weibullg_hinv(p, a, b):
    t = b * (-np.log1p(-np.asarray(p, dtype=float))) ** (1.0 / a)
    return -np.expm1(-t), t


FAMILIES: dict[str, FamilySpec] = {
    f.name: f
    for f in [
        FamilySpec("betaexpg", ("a", "b", "d"), (_POS, _POS, _POS), _betaexpg_h, _betaexpg_lhp, _betaexpg_hinv),
        FamilySpec("betag", ("a", "b"), (_POS, _POS), _betag_h, _betag_lhp, _betag_hinv),
        FamilySpec("expexppg", ("a", "b"), (_POS, _POS), _expexppg_h, _expexppg_lhp, _expexppg_hinv),
        FamilySpec("expg", ("a",), (_POS,), _expg_h, _expg_lhp, _expg_hinv),
        FamilySpec("expgg", ("a", "b"), (_POS, _POS), _expgg_h, _expgg_lhp, _expgg_hinv),
        FamilySpec("expkumg", ("a", "b", "d"), (_POS, _POS, _POS), _expkumg_h, _expkumg_lhp, _expkumg_hinv),
        FamilySpec("gammag", ("a",), (_POS,), _gammag_h, _gammag_lhp, _gammag_hinv),
        FamilySpec("gammag1", ("a",), (_POS,), _gammag1_h, _gammag1_lhp, _gammag1_hinv),
        FamilySpec("gammag2", ("a",), (_POS,), _gammag2_h, _gammag2_lhp, _gammag2_hinv),
        FamilySpec("gbetag", ("a", "b", "d"), (_POS, _POS, _POS), _gbetag_h, _gbetag_lhp, _gbetag_hinv),
        FamilySpec("gexppg", ("a", "b"), (_POS, (0.0, 1.0)), _gexppg_h, _gexppg_lhp, _gexppg_hinv),
        FamilySpec("gmbetaexpg", ("a", "b"), (_POS, _POS), _gmbetaexpg_h, _gmbetaexpg_lhp, _gmbetaexpg_hinv),
        FamilySpec("gtransg", ("a", "b"), (_POS, (-1.0, 1.0)), _gtransg_h, _gtransg_lhp, _gtransg_hinv),
        FamilySpec("gxlogisticg", ("a",), (_POS,), _gxlogisticg_h, _gxlogisticg_lhp, _gxlogisticg_hinv, log_h_prime_sf=_gxlogisticg_lhp_sf),
        FamilySpec("kumg", ("a", "b"), (_POS, _POS), _kumg_h, _kumg_lhp, _kumg_hinv),
        FamilySpec("loggammag1", ("a", "b"), (_POS, _POS), _loggammag1_h, _loggammag1_lhp, _loggammag1_hinv),
        FamilySpec("loggammag2", ("a", "b"), (_POS, _POS), _loggammag2_h, _loggammag2_lhp, _loggammag2_hinv),
        FamilySpec("mbetag", ("a", "b", "d"), (_POS, _POS, _POS), _mbetag_h, _mbetag_lhp, _mbetag_hinv),
        FamilySpec("mog", ("a",), (_POS,), _mog_h, _mog_lhp, _mog_hinv),
        FamilySpec("mokumg", ("a", "b", "d"), (_POS, _POS, _POS), _mokumg_h, _mokumg_lhp, _mokumg_hinv),
        FamilySpec("ologlogg", ("a", "b", "d"), (_POS, _POS, _POS), _ologlogg_h, _ologlogg_lhp, _ologlogg_hinv),
        FamilySpec("texpsg", ("a",), (_POS,), _texpsg_h, _texpsg_lhp, _texpsg_hinv),
        FamilySpec("weibullextg", ("a", "b"), (_POS, _POS), _weibullextg_h, _weibullextg_lhp, _weibullextg_hinv),
        FamilySpec("weibullg", ("a", "b"), (_POS, _POS), _weibullg_h, _weibullg_lhp, _weibullg_hinv),
    ]
}


def get_family(name: str) -> FamilySpec:
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown family {name!r}; valid: {sorted(FAMILIES)}"
        ) from None


def _check_induced(fam: FamilySpec, induced):
    for v, (lo, hi), nm in zip(induced, fam.domains, fam.param_names):
        if not (lo < v < hi):
            raise ValueError(
                f"{fam.name} parameter {nm}={v} outside ({lo}, {hi})"
            )


def _resolve_family(name, induced):
    """``(fam, induced)`` with the name, the count and every domain checked."""
    fam = get_family(name)
    induced = tuple(float(v) for v in induced)
    if len(induced) != fam.n_induced:
        raise ValueError(f"{fam.name} takes {fam.n_induced} induced parameters")
    _check_induced(fam, induced)
    return fam, induced


def _resolve(family, base, params, location):
    """``(fam, induced, (dist, shape, mu))`` from a full parameter vector: induced
    a[, b[, d]] first, base shapes next, mu last (0 when ``location`` is off)."""
    fam, dist = get_family(family), get_base(base)
    params = tuple(float(p) for p in params)
    want = fam.n_induced + dist.n_params + (1 if location else 0)
    if len(params) != want:
        raise ValueError(
            f"{family} x {base} with location={location} expects {want} "
            f"parameters, got {len(params)}"
        )
    k = fam.n_induced
    induced, shape = params[:k], params[k : k + dist.n_params]
    _check_shape(dist, shape)
    _check_induced(fam, induced)
    return fam, induced, (dist, shape, params[-1] if location else 0.0)


def _h(fam, induced, u, omu, lsf):
    """h on the triple; NaN (an endpoint's 0/0 or inf/inf) goes to the nearer end."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = fam.h(u, omu, lsf, *induced)
    return np.clip(np.where(np.isnan(out), np.where(u > 0.5, 1.0, 0.0), out), 0.0, 1.0)


def _lhp(fam, induced, u, omu, lsf):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = fam.log_h_prime(u, omu, lsf, *induced)
    return np.where(np.isnan(out), -np.inf, out)


def _inverse(fam, induced, p):
    """``(u, -ln(1 - u))`` at the u with h(u) = p, from one call of the kernel."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u, lsf = fam.h_inv(p, *induced)
    u = np.clip(np.where(np.isnan(u), np.where(p > 0.5, 1.0, 0.0), u), 0.0, 1.0)
    u = np.where(p == 0.0, 0.0, np.where(p == 1.0, 1.0, u))
    lsf = np.maximum(np.where(np.isnan(lsf), np.where(p > 0.5, np.inf, 0.0), lsf), 0.0)
    lsf = np.where(p == 0.0, 0.0, np.where(p == 1.0, np.inf, lsf))
    return u, lsf


def _log_density(fam, induced, b, x, tail):
    """Composite log-density at x from the base tail triple ``tail`` at x."""
    u, omu, lsf = tail
    if fam.log_h_prime_sf is not None:
        # composite density as [h'(u)(1-u)] * hazard(x): both factors stay
        # moderate where ln h'(u) and the base log-density separately blow
        # up to +/- lsf and their sum is cancellation noise
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = fam.log_h_prime_sf(u, omu, lsf, *induced) + _log_hazard(b, x, lsf)
        # below the median lsf is -log1p(-u), which is 0 only where the base
        # cdf u itself has underflowed to 0 (outside the support, or within
        # ~1e-308 of its edge in probability); the density is taken as 0
        zero = lsf <= 0.0
    else:
        lhp, lg = _lhp(fam, induced, u, omu, lsf), _on_support(b, b[0].log_pdf, x)
        with np.errstate(invalid="ignore"):
            out = lhp + lg
        # h' is finite on the open interval, so lhp = +inf with a finite base
        # log-density happens only where u (below the median) or the base sf
        # (above it) has underflowed to an exact 0, i.e. within ~1e-308 of an
        # end of the support in probability; the density is taken as 0 there
        zero = np.isposinf(lhp) & np.isfinite(lg)
    return np.where(np.isnan(out) | zero, -np.inf, out)


def _complements(u, one_minus_u, neg_log_sf):
    """The (1 - u, -ln(1 - u)) pair a transform receives; whichever the
    caller leaves out is derived from the one it gave, else from u."""
    omu = 1.0 - u if one_minus_u is None else np.asarray(one_minus_u, dtype=float)
    if neg_log_sf is not None:
        return omu, np.asarray(neg_log_sf, dtype=float)
    with np.errstate(divide="ignore"):
        return omu, -np.log1p(-u) if one_minus_u is None else -np.log(omu)


def h_forward(name, u, induced, one_minus_u=None, neg_log_sf=None):
    """Transform value h(u); h(0) = 0, h(1) = 1, nondecreasing.

    ``one_minus_u`` and ``neg_log_sf`` optionally supply 1-u and -ln(1-u) at
    full precision when the caller knows them better than 1-u can express.
    """
    fam, induced = _resolve_family(name, induced)
    u = np.asarray(u, dtype=float)
    if np.any((u < 0) | (u > 1)):
        raise ValueError("h_forward requires u in [0, 1]")
    return _scalar(_h(fam, induced, u, *_complements(u, one_minus_u, neg_log_sf)))


def log_h_prime(name, u, induced, one_minus_u=None, neg_log_sf=None):
    """log dh/du; may be +-inf at the endpoints, never NaN."""
    fam, induced = _resolve_family(name, induced)
    u = np.asarray(u, dtype=float)
    return _scalar(_lhp(fam, induced, u, *_complements(u, one_minus_u, neg_log_sf)))


def _h_inverse(name, p, induced):
    """``(u, -ln(1 - u))`` at the u with h(u) = p."""
    fam, induced = _resolve_family(name, induced)
    p = np.asarray(p, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("h_inverse requires p in [0, 1]")
    return _inverse(fam, induced, p)


def h_inverse(name, p, induced):
    """The u with h(u) = p."""
    return _scalar(_h_inverse(name, p, induced)[0])


def n_total_params(family, base, location=True):
    return get_family(family).n_induced + get_base(base).n_params + (1 if location else 0)


def family_log_pdf(family, base, x, params, location=True):
    fam, induced, b = _resolve(family, base, params, location)
    return _scalar(_log_density(fam, induced, b, x, _base_tail(b, x)))


def family_pdf(family, base, x, params, location=True, log=False):
    lp = family_log_pdf(family, base, x, params, location)
    if log:
        return lp
    with np.errstate(over="ignore"):
        out = np.exp(lp)
    return out if np.ndim(out) else float(out)


def family_cdf(family, base, x, params, location=True, log_p=False, lower_tail=True):
    fam, induced, b = _resolve(family, base, params, location)
    out = _h(fam, induced, *_base_tail(b, x))
    if not lower_tail:
        out = 1.0 - out
    if log_p:
        with np.errstate(divide="ignore"):
            out = np.log(out)
    return _scalar(out)


def family_quantile(family, base, p, params, location=True, log_p=False, lower_tail=True):
    fam, induced, b = _resolve(family, base, params, location)
    p = np.asarray(p, dtype=float)
    if log_p:
        p = np.exp(-p)
    if not lower_tail:
        p = 1.0 - p
    if np.any((p < 0) | (p > 1)):
        raise ValueError("quantile probabilities must lie in [0, 1]")
    # lower half of u through the base quantile, upper half through the base
    # inverse-survival (in -log survival form) so a u that saturates at 1.0
    # in double precision never loses the tail; each only on its own half
    u, l = _inverse(fam, induced, p)
    lo = u <= 0.5
    with np.errstate(invalid="ignore", over="ignore"):
        x_lo, x_hi = _invert(b, b[0].quantile, u[lo]), _invert(b, b[0].isf, l[~lo])
    out = np.empty(u.shape)
    out[lo], out[~lo] = x_lo, x_hi
    return _scalar(out)


def family_sample(family, base, n, params, location=True, seed=None, rng=None):
    """Inverse-transform sample: quantile applied to n seeded uniforms."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    if rng is None:
        rng = np.random.default_rng(seed)
    u = rng.uniform(size=n)
    out = family_quantile(family, base, u, params, location)
    return np.asarray(out, dtype=float).reshape(n)
