"""Special-function kernel shared by the distribution registries and test statistics.

Everything here is a pure function of its arguments.  The heavy lifting is
delegated to ``scipy.special``; this module pins down domains, regularization
conventions, and the handful of derived quantities (chi-square quantiles,
the asymptotic Kolmogorov survival function) the rest of the package needs.
"""

from __future__ import annotations

import numpy as np
import scipy.special as sc

__all__ = [
    "log_gamma",
    "log_beta",
    "reg_inc_gamma_lower",
    "reg_inc_gamma_upper",
    "inv_reg_inc_gamma_lower",
    "inv_reg_inc_gamma_upper_from_log",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "std_normal_cdf",
    "std_normal_quantile",
    "std_normal_quantile_from_log",
    "chi_square_cdf",
    "chi_square_quantile",
    "kolmogorov_sf",
]


def _check(cond, msg):
    if not np.all(cond):
        raise ValueError(msg)


def log_gamma(x):
    """ln of the gamma function for x > 0."""
    x = np.asarray(x, dtype=float)
    _check(x > 0, "log_gamma requires x > 0")
    return sc.gammaln(x)


def log_beta(a, b):
    """ln B(a, b) for a, b > 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check((a > 0) & (b > 0), "log_beta requires a, b > 0")
    return sc.betaln(a, b)


def reg_inc_gamma_lower(x, a):
    """Regularized lower incomplete gamma P(a, x) for x >= 0, a > 0."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    _check(a > 0, "reg_inc_gamma_lower requires a > 0")
    _check(x >= 0, "reg_inc_gamma_lower requires x >= 0")
    return sc.gammainc(a, x)


def reg_inc_gamma_upper(x, a):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    _check(a > 0, "reg_inc_gamma_upper requires a > 0")
    _check(x >= 0, "reg_inc_gamma_upper requires x >= 0")
    return sc.gammaincc(a, x)


def inv_reg_inc_gamma_lower(p, a):
    """Inverse of P(a, .): the x with P(a, x) = p."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    _check(a > 0, "inv_reg_inc_gamma_lower requires a > 0")
    _check((p >= 0) & (p <= 1), "inv_reg_inc_gamma_lower requires p in [0, 1]")
    return sc.gammaincinv(a, p)


def inv_reg_inc_gamma_upper_from_log(l, a):
    """The x with Q(a, x) = exp(-l), valid even when exp(-l) underflows.

    For representable tail probabilities this defers to the standard inverse;
    deeper in the tail it solves the leading-order asymptotic
    -ln Q(a, x) ~ x - (a-1) ln x + ln Gamma(a) by Newton iteration.
    """
    l = np.asarray(l, dtype=float)
    a = np.asarray(a, dtype=float)
    _check(a > 0, "inv_reg_inc_gamma_upper_from_log requires a > 0")
    _check(l >= 0, "inv_reg_inc_gamma_upper_from_log requires l >= 0")
    shallow = l < 600.0
    with np.errstate(over="ignore"):
        x_shallow = sc.gammainccinv(a, np.exp(-np.where(shallow, l, 0.0)))
    target = l - sc.gammaln(a)
    x = np.maximum(np.asarray(l, dtype=float).copy(), a + 2.0)
    for _ in range(60):
        # two correction terms of the asymptotic series for Q(a, x)
        corr = np.log1p((a - 1.0) / x + (a - 1.0) * (a - 2.0) / (x * x))
        f = x - (a - 1.0) * np.log(x) - corr - target
        df = 1.0 - (a - 1.0) / x
        x = np.maximum(x - f / np.maximum(df, 0.5), a + 1.0)
    out = np.where(shallow, x_shallow, x)
    return out if out.ndim else float(out)


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b) for x in [0, 1], a, b > 0."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check((a > 0) & (b > 0), "reg_inc_beta requires a, b > 0")
    _check((x >= 0) & (x <= 1), "reg_inc_beta requires x in [0, 1]")
    return sc.betainc(a, b, x)


def inv_reg_inc_beta(p, a, b):
    """Inverse of I_x(a, b) in x."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check((a > 0) & (b > 0), "inv_reg_inc_beta requires a, b > 0")
    _check((p >= 0) & (p <= 1), "inv_reg_inc_beta requires p in [0, 1]")
    return sc.betaincinv(a, b, p)


def std_normal_cdf(z):
    return sc.ndtr(np.asarray(z, dtype=float))


def std_normal_quantile(p):
    p = np.asarray(p, dtype=float)
    _check((p >= 0) & (p <= 1), "std_normal_quantile requires p in [0, 1]")
    return sc.ndtri(p)


def std_normal_quantile_from_log(log_p):
    """ndtri(exp(log_p)), accurate far into the lower tail."""
    log_p = np.asarray(log_p, dtype=float)
    _check(log_p <= 0, "std_normal_quantile_from_log requires log_p <= 0")
    return sc.ndtri_exp(log_p)


def chi_square_cdf(x, df):
    """Chi-square cdf with df degrees of freedom, x >= 0."""
    x = np.asarray(x, dtype=float)
    df = np.asarray(df, dtype=float)
    _check(df > 0, "chi_square_cdf requires df > 0")
    return sc.gammainc(df / 2.0, np.maximum(x, 0.0) / 2.0)


def chi_square_quantile(p, df):
    """Chi-square quantile: the x with chi_square_cdf(x, df) = p."""
    p = np.asarray(p, dtype=float)
    df = np.asarray(df, dtype=float)
    _check(df > 0, "chi_square_quantile requires df > 0")
    _check((p >= 0) & (p < 1), "chi_square_quantile requires p in [0, 1)")
    return 2.0 * sc.gammaincinv(df / 2.0, p)


def kolmogorov_sf(lam):
    """Asymptotic Kolmogorov survival function Q(lam) = 2 sum (-1)^(j-1) exp(-2 j^2 lam^2)."""
    lam = np.asarray(lam, dtype=float)
    _check(lam >= 0, "kolmogorov_sf requires lam >= 0")
    return sc.kolmogorov(lam)
