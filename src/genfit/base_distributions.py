"""The 15 location-shifted base distributions.

Each entry works on the shifted variable ``y = x - mu`` with support y > 0 and
exposes log-pdf, one tail kernel, quantile, inverse survival, and a cheap
moment-based starting-value rule used by the fitter.  Parameter vectors are
``(shape/scale..., mu)``; every non-location parameter lives on (0, inf)
except the log-normal's first parameter, which is the log-scale mean and may
be any real.

The tail kernel ``tail(y, *shape) -> (u, sf, log_sf)`` computes the cdf ``u``
and the survival value ``sf`` from shared intermediates, and gives exactly
``u = 0`` and ``sf = 1`` at ``y = 0``.  ``log_sf`` is a zero-argument
callable: the closed-form ln sf, which several bases compute at more cost
than ``u`` and ``sf`` together, so it runs only when some ``sf`` has
underflowed, and it need only be right where ``sf < 1e-300``.

The private ``_base_tail`` owns the one precision rule for the triple
``(u, 1 - u, -ln(1 - u))`` (Maechler 2012): below the median ``1 - u`` and
``-log1p(-u)`` come from ``u``, which holds the precision there; from the
median up they are the kernel's ``sf`` and ``-ln sf``, with the closed-form
``log_sf`` only where ``sf < 1e-300``.  ``base_cdf``, ``base_sf``,
``base_log_sf``, ``base_log_hazard`` (for bases without a closed-form
hazard) and the composite cdf and log-density all read from it.

It also owns the rule for non-finite values.  The kernels call
``scipy.special`` directly and nothing checks their arguments per call, so a
special function outside its domain returns NaN instead of raising.  At
``y = +inf`` every base gives the triple ``(1, 0, +inf)``, whatever its
kernel forms there (inf/inf, inf - inf).  A NaN a kernel makes at a finite
``y`` in the support stays NaN: the family layer passes it on, and the
spacing objective reads it as an infeasible point.  The kernels run only
inside the private cores (``_on_support``, ``_base_tail``, ``_invert``),
which silence numpy's floating-point warnings for them.

Each public function checks the name, the count and every domain of its
parameter vector once (``_resolve_base``).  The private cores take the
resolved ``(dist, shape, mu)`` and trust it; the family layer calls them.
In the tail, log-pdf and log-hazard kernels a parameter is a float or a
(B, 1) column; ``_per_entry`` gives such a column Python's own log and power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.special as sc

from .special_functions import _log_q_asymptote, _log_q_series, inv_reg_inc_gamma_upper_from_log

__all__ = [
    "BASE_DISTRIBUTIONS",
    "BaseDist",
    "base_log_pdf",
    "base_pdf",
    "base_cdf",
    "base_sf",
    "base_log_sf",
    "base_quantile",
    "base_isf",
    "base_isf_log",
    "base_sample",
    "get_base",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _scalar(out):
    """0-d results as Python floats, arrays unchanged."""
    return out if out.ndim else float(out)


def _per_entry(fn):
    """fn, a ``math`` function or ``pow``, on parameters that are floats or
    (B, 1) columns of one shape, entry by entry: numpy's log, log1p, expm1 and
    power differ from Python's in the last bit at some arguments."""

    def lifted(*p):
        if isinstance(p[0], float):
            return fn(*p)
        return np.array([fn(*v) for v in zip(*(x.ravel().tolist() for x in p))]).reshape(p[0].shape)

    return lifted


_ln, _ln1p, _em1, _pow = (_per_entry(f) for f in (math.log, math.log1p, math.expm1, pow))


def _beta_sides(right, p, q, v, w, fn):
    """``(i, 1 - i)`` from one fn (betainc or betaincinv) per element: i(p, q)
    at v, or i(q, p) at w = 1 - v where ``right``, the side with the precision."""
    i = fn(np.where(right, q, p), np.where(right, p, q), np.where(right, w, v))
    j = 1.0 - i
    return np.where(right, j, i), np.where(right, i, j)


def _unit_gamma_tail(x, a):
    """Tail kernel of the unit-scale gamma: P(a, x) and Q(a, x)."""
    return sc.gammainc(a, x), sc.gammaincc(a, x), lambda: _log_q_asymptote(x, a)


def _hazard_tail(neg_h):
    """Tail kernel from -H, the negated cumulative hazard: sf = e^{-H}."""
    return -np.expm1(neg_h), np.exp(neg_h), lambda: neg_h


@dataclass(frozen=True)
class BaseDist:
    """One shifted base distribution, parameterized by its unshifted y = x - mu."""

    name: str
    param_names: tuple[str, ...]
    log_pdf: Callable
    tail: Callable  # tail(y, *shape) -> (u, sf, log_sf); see the module docstring
    quantile: Callable
    isf: Callable  # quantile as a function of l = -ln(survival value)
    start: Callable
    # indices of parameters allowed to range over all reals (log-normal alpha)
    real_params: tuple[int, ...] = field(default=())
    # closed-form log hazard(y, *shape), for the bases that have one
    log_hazard: Callable | None = None

    @property
    def n_params(self) -> int:
        return len(self.param_names)


def _neg_log1m(q):
    # -log(1 - q), accurate near q = 0
    return -np.log1p(-np.asarray(q, dtype=float))


# --- Birnbaum-Saunders -----------------------------------------------------

def _bs_z(y, alpha, beta):
    r = np.sqrt(y / beta)
    return (r - 1.0 / r) / alpha


def _bs_log_pdf(y, alpha, beta):
    r = np.sqrt(y / beta)
    z = (r - 1.0 / r) / alpha
    return np.log(r + 1.0 / r) - np.log(2.0 * alpha * y) - 0.5 * z * z - _LOG_SQRT_2PI


def _bs_tail(y, alpha, beta):
    z = _bs_z(y, alpha, beta)
    return sc.ndtr(z), sc.ndtr(-z), lambda: sc.log_ndtr(-z)


def _bs_quantile(q, alpha, beta):
    z = sc.ndtri(q)
    w = alpha * z / 2.0
    return beta * (w + np.sqrt(w * w + 1.0)) ** 2



def _bs_isf(l, alpha, beta):
    z = -sc.ndtri_exp(-l)
    w = alpha * z / 2.0
    return beta * (w + np.sqrt(w * w + 1.0)) ** 2

def _bs_start(y):
    m = np.mean(y)
    cv = np.std(y) / m
    alpha = float(np.clip(cv, 0.1, 5.0))
    return alpha, m / (1.0 + alpha * alpha / 2.0)


# --- Burr XII --------------------------------------------------------------

def _log1p_pow(y, beta):
    # log(1 + y**beta) without overflowing where y**beta exceeds double range
    y = np.asarray(y, dtype=float)
    big = beta * np.log(np.maximum(y, 1.0)) > 700.0
    yb = np.where(big, 1.0, y**beta)
    out = np.where(
        big,
        beta * np.log(y) + np.log1p(np.where(big, y, 2.0) ** -beta),
        np.log1p(yb),
    )
    return out


def _burrxii_log_pdf(y, alpha, beta):
    return (
        np.log(alpha * beta)
        + (beta - 1.0) * np.log(y)
        - (alpha + 1.0) * _log1p_pow(y, beta)
    )


def _burrxii_tail(y, alpha, beta):
    return _hazard_tail(-alpha * _log1p_pow(y, beta))


def _burrxii_quantile(q, alpha, beta):
    return np.expm1(_neg_log1m(q) / alpha) ** (1.0 / beta)



def _burrxii_isf(l, alpha, beta):
    la = l / alpha
    log_em1 = np.where(la > 30.0, la, np.log(np.expm1(np.minimum(la, 30.0))))
    return np.exp(log_em1 / beta)

def _burrxii_start(y):
    med = np.median(y)
    return math.log(2.0) / math.log1p(med), 1.0


# --- Chen ------------------------------------------------------------------

def _chen_log_pdf(y, alpha, beta):
    ya = y**alpha
    return np.log(alpha * beta) + (alpha - 1.0) * np.log(y) + ya - beta * np.expm1(ya)


def _chen_tail(y, alpha, beta):
    return _hazard_tail(-beta * np.expm1(y**alpha))


def _chen_quantile(q, alpha, beta):
    return np.log1p(_neg_log1m(q) / beta) ** (1.0 / alpha)



def _chen_isf(l, alpha, beta):
    return np.log1p(l / beta) ** (1.0 / alpha)

def _chen_start(y):
    med = np.median(y)
    # past med = 30 e^med overflows beta's scale; alpha = 1/ln(med) puts
    # med^alpha at e, so beta below still places the median at med
    alpha = 1.0 if med < 30 else 1.0 / math.log(med)
    return alpha, math.log(2.0) / math.expm1(med**alpha)


# --- Chi-square ------------------------------------------------------------

def _chisq_log_pdf(y, alpha):
    h = alpha / 2.0
    return -sc.gammaln(h) - h * math.log(2.0) + (h - 1.0) * np.log(y) - y / 2.0


def _chisq_tail(y, alpha):
    return _unit_gamma_tail(y / 2.0, alpha / 2.0)


def _chisq_quantile(q, alpha):
    return 2.0 * sc.gammaincinv(alpha / 2.0, q)



def _chisq_isf(l, alpha):
    return 2.0 * inv_reg_inc_gamma_upper_from_log(l, alpha / 2.0)

def _chisq_start(y):
    return (float(np.mean(y)),)


# --- Exponential -----------------------------------------------------------

def _exp_log_pdf(y, alpha):
    return np.log(alpha) - alpha * y


def _exp_tail(y, alpha):
    return _hazard_tail(-alpha * y)


def _exp_quantile(q, alpha):
    return _neg_log1m(q) / alpha



def _exp_isf(l, alpha):
    return l / alpha

def _exp_start(y):
    return (1.0 / float(np.mean(y)),)


# --- F ---------------------------------------------------------------------

def _f_log_pdf(y, alpha, beta):
    # with r = alpha y / beta: ha ln r - (ha + hb) ln(1 + r), written so that
    # no two large terms cancel when alpha or r is large
    ha, hb = alpha / 2.0, beta / 2.0
    r = alpha * y / beta
    core = np.where(r < 1.0, ha * np.log(r) - (ha + hb) * np.log1p(r), -ha * np.log1p(1.0 / r) - hb * np.log1p(r))
    return core - np.log(y) - sc.betaln(ha, hb)


def _f_tail(y, alpha, beta):
    # u = I_x(ha, hb) at x = alpha y / d and sf = I_t(hb, ha) at t = 1 - x, from
    # one betainc per element; I_t(hb, ha) ~ t^hb / (hb B(hb, ha)) as t -> 0
    ha, hb = alpha / 2.0, beta / 2.0
    d = alpha * y + beta
    t = beta / d
    u, sf = _beta_sides(t < hb / (ha + hb), ha, hb, alpha * y / d, t, sc.betainc)
    return u, sf, lambda: hb * np.log(t) - np.log(hb) - sc.betaln(hb, ha)


def _f_quantile(q, alpha, beta):
    t = sc.betaincinv(alpha / 2.0, beta / 2.0, q)
    return beta * t / (alpha * (1.0 - t))



def _f_isf(l, alpha, beta):
    hb, ha = beta / 2.0, alpha / 2.0
    l = np.asarray(l, dtype=float)
    shallow = l < 600.0
    t_s = sc.betaincinv(hb, ha, np.exp(-np.where(shallow, l, 0.0)))
    # tail asymptotic: I_t(hb, ha) ~ t^hb / (hb B(hb, ha)) as t -> 0
    log_t = (-l + np.log(hb) + sc.betaln(hb, ha)) / hb
    deep = (beta / alpha) * np.exp(-log_t)
    out = np.where(shallow, beta * (1.0 - t_s) / (alpha * np.maximum(t_s, 1e-308)), deep)
    return _scalar(out)

def _f_start(y):
    m = float(np.mean(y))
    beta = 2.0 * m / (m - 1.0) if m > 1.2 else 4.0
    return 2.0, float(np.clip(beta, 2.5, 100.0))


# --- Frechet ---------------------------------------------------------------

def _frechet_log_pdf(y, alpha, beta):
    r = y / beta
    return np.log(alpha / beta) - (alpha + 1.0) * np.log(r) - r**-alpha


def _frechet_tail(y, alpha, beta):
    r = (y / beta) ** -alpha
    # once sf = 1 - e^-r has underflowed it is r itself, and ln r is taken
    # as -alpha ln(y/beta) since r underflows along with it
    return np.exp(-r), -np.expm1(-r), lambda: -alpha * np.log(y / beta)


def _frechet_quantile(q, alpha, beta):
    return beta * (-np.log(q)) ** (-1.0 / alpha)



def _frechet_isf(l, alpha, beta):
    # survival exp(-l) = 1 - exp(-r) with r = (y/beta)^(-alpha)
    l = np.asarray(l, dtype=float)
    log_r = np.where(
        l > 36.0, -l, np.log(-np.log1p(-np.exp(-np.minimum(l, 36.0))))
    )
    out = beta * np.exp(-log_r / alpha)
    return _scalar(out)

def _frechet_start(y):
    med = float(np.median(y))
    alpha = 2.0
    return alpha, med * math.log(2.0) ** (1.0 / alpha)


# --- Gamma -----------------------------------------------------------------

def _gamma_log_pdf(y, alpha, beta):
    return -alpha * np.log(beta) - sc.gammaln(alpha) + (alpha - 1.0) * np.log(y) - y / beta


def _gamma_tail(y, alpha, beta):
    return _unit_gamma_tail(y / beta, alpha)


def _gamma_quantile(q, alpha, beta):
    return beta * sc.gammaincinv(alpha, q)



def _gamma_isf(l, alpha, beta):
    return beta * inv_reg_inc_gamma_upper_from_log(l, alpha)

def _gamma_start(y):
    m, s = float(np.mean(y)), float(np.std(y))
    s = max(s, 1e-8 * max(m, 1.0))
    return (m / s) ** 2, s * s / m


# --- Gompertz --------------------------------------------------------------

def _gompertz_log_pdf(y, alpha, beta):
    by = beta * y
    return np.log(alpha) + by - (alpha / beta) * np.expm1(by)


def _gompertz_tail(y, alpha, beta):
    return _hazard_tail(-(alpha / beta) * np.expm1(beta * y))


def _gompertz_quantile(q, alpha, beta):
    return np.log1p(beta * _neg_log1m(q) / alpha) / beta



def _gompertz_isf(l, alpha, beta):
    return np.log1p(beta * l / alpha) / beta

def _gompertz_start(y):
    m = float(np.mean(y))
    beta = 1.0 / m
    med = float(np.median(y))
    alpha = math.log(2.0) * beta / math.expm1(beta * med)
    return alpha, beta


# --- Linear failure rate ---------------------------------------------------

def _lfr_log_pdf(y, alpha, beta):
    return np.log(alpha + beta * y) - alpha * y - beta * y * y / 2.0


def _lfr_tail(y, alpha, beta):
    return _hazard_tail(-alpha * y - beta * y * y / 2.0)


def _lfr_quantile(q, alpha, beta):
    t = _neg_log1m(q)
    # stable root of beta y^2 / 2 + alpha y - t = 0
    return 2.0 * t / (alpha + np.sqrt(alpha * alpha + 2.0 * beta * t))



def _lfr_isf(l, alpha, beta):
    return 2.0 * l / (alpha + np.sqrt(alpha * alpha + 2.0 * beta * l))

def _lfr_start(y):
    m = float(np.mean(y))
    return 1.0 / m, 1.0 / (m * m)


# --- Log-logistic ----------------------------------------------------------

def _loglogistic_log_pdf(y, alpha, beta):
    r = y / beta
    return (
        np.log(alpha / beta)
        + (alpha - 1.0) * np.log(r)
        - 2.0 * _log1p_pow(r, alpha)
    )


def _loglogistic_tail(y, alpha, beta):
    r = y / beta
    ra = r**alpha
    # sf = 1 / (1 + r^alpha) underflows only for r > 1, where ra overflows
    u = np.where(np.isinf(ra), 1.0, ra / (1.0 + ra))
    return u, 1.0 / (1.0 + ra), lambda: -(alpha * np.log(r) + np.log1p(r**-alpha))


def _loglogistic_quantile(q, alpha, beta):
    return beta * (q / (1.0 - q)) ** (1.0 / alpha)



def _loglogistic_isf(l, alpha, beta):
    # (1 - q)/q with q = exp(-l): log odds = l + log(1 - exp(-l))
    l = np.asarray(l, dtype=float)
    log_odds = l + np.log(-np.expm1(-l))
    out = beta * np.exp(log_odds / alpha)
    return _scalar(out)

def _loglogistic_start(y):
    q25, med, q75 = np.quantile(y, [0.25, 0.5, 0.75])
    spread = math.log(q75 / q25) if q75 > q25 > 0 else 1.0
    return float(np.clip(math.log(9.0) / spread, 0.2, 20.0)), float(med)


# --- Log-normal ------------------------------------------------------------

def _lognormal_log_pdf(y, alpha, beta):
    z = (np.log(y) - alpha) / beta
    return -np.log(y * beta) - 0.5 * z * z - _LOG_SQRT_2PI


def _lognormal_tail(y, alpha, beta):
    z = (np.log(y) - alpha) / beta
    return sc.ndtr(z), sc.ndtr(-z), lambda: sc.log_ndtr(-z)


def _lognormal_quantile(q, alpha, beta):
    return np.exp(alpha + beta * sc.ndtri(q))



def _lognormal_isf(l, alpha, beta):
    return np.exp(alpha - beta * sc.ndtri_exp(-l))

def _lognormal_start(y):
    ly = np.log(y)
    return float(np.mean(ly)), max(float(np.std(ly)), 1e-3)


# --- Lomax -----------------------------------------------------------------

def _lomax_log_pdf(y, alpha, beta):
    return np.log(alpha * beta) - (alpha + 1.0) * np.log1p(beta * y)


def _lomax_tail(y, alpha, beta):
    return _hazard_tail(-alpha * np.log1p(beta * y))


def _lomax_quantile(q, alpha, beta):
    return np.expm1(_neg_log1m(q) / alpha) / beta



def _lomax_isf(l, alpha, beta):
    la = l / alpha
    log_em1 = np.where(la > 30.0, la, np.log(np.expm1(np.minimum(la, 30.0))))
    out = np.exp(log_em1) / beta
    return _scalar(out)

def _lomax_start(y):
    return 2.0, 1.0 / float(np.mean(y))


# --- Rayleigh --------------------------------------------------------------

def _rayleigh_log_pdf(y, beta):
    r = y / beta
    return np.log(2.0 * y / (beta * beta)) - r * r


def _rayleigh_tail(y, beta):
    r = y / beta
    return _hazard_tail(-r * r)


def _rayleigh_quantile(q, beta):
    return beta * np.sqrt(_neg_log1m(q))



def _rayleigh_isf(l, beta):
    return beta * np.sqrt(l)

def _rayleigh_start(y):
    return (math.sqrt(float(np.mean(np.square(y)))),)


# --- Weibull ---------------------------------------------------------------

def _weibull_log_pdf(y, alpha, beta):
    r = y / beta
    return np.log(alpha / beta) + (alpha - 1.0) * np.log(r) - r**alpha


def _weibull_tail(y, alpha, beta):
    return _hazard_tail(-((y / beta) ** alpha))


def _weibull_quantile(q, alpha, beta):
    return beta * _neg_log1m(q) ** (1.0 / alpha)



def _weibull_isf(l, alpha, beta):
    return beta * l ** (1.0 / alpha)

def _weibull_start(y):
    m, s = float(np.mean(y)), float(np.std(y))
    cv = max(s / m, 1e-3)
    alpha = float(np.clip(cv**-1.086, 0.2, 20.0))  # Justus approximation
    return alpha, m / math.gamma(1.0 + 1.0 / alpha)


# --- Hazard rates ----------------------------------------------------------
# log(pdf / sf) computed without forming the pdf and sf separately, which is
# what keeps it usable in the extreme right tail where both log terms are of
# order -ln(sf) and their float sum is pure cancellation noise.

def _bs_log_hazard(y, alpha, beta):
    y = np.asarray(y, dtype=float)
    r = np.sqrt(y / beta)
    z = (r - 1.0 / r) / alpha
    direct = _bs_log_pdf(y, alpha, beta) - sc.log_ndtr(-z)
    if not np.count_nonzero(z > 30.0):
        return direct
    jac = np.log(r + 1.0 / r) - np.log(2.0 * alpha * y)
    # Mills ratio: Phi(-z) = phi(z)/z * (1 - z^-2 + 3 z^-4 - 15 z^-6 + ...)
    zz = np.where(z > 30.0, z, np.inf) ** -2
    deep = jac + np.log(np.where(z > 30.0, z, 1.0)) - np.log1p(-zz * (1.0 - 3.0 * zz * (1.0 - 5.0 * zz)))
    return np.where(z > 30.0, deep, direct)


def _chen_log_hazard(y, alpha, beta):
    y = np.asarray(y, dtype=float)
    return np.log(alpha * beta) + (alpha - 1.0) * np.log(y) + y**alpha


def _gamma_shape_log_hazard(z, a):
    # unit-scale gamma: ln pdf - ln Q, ln Q by its asymptotic series where Q
    # underflows; past z = 1e6 minus the log of the series alone, whose
    # leading terms cancel against the log-pdf
    far = z > 1e6
    x = np.where(far, 1.0, z)
    q = sc.gammaincc(a, x)
    shallow = q > 1e-300
    log_q = np.log(np.where(shallow, q, 1.0))
    if np.count_nonzero(~shallow):
        log_q = np.where(shallow, log_q, _log_q_asymptote(x, a))
    out = -sc.gammaln(a) + (a - 1.0) * np.log(z) - z - log_q
    if np.count_nonzero(far):
        out = np.where(far, -_log_q_series(np.where(far, z, np.inf), a), out)
    return out


def _chisq_log_hazard(y, alpha):
    return _gamma_shape_log_hazard(np.asarray(y, dtype=float) / 2.0, alpha / 2.0) - math.log(2.0)


def _exp_log_hazard(y, alpha):
    return _ln(alpha) + np.zeros(np.shape(y))


def _gamma_log_hazard(y, alpha, beta):
    return _gamma_shape_log_hazard(np.asarray(y, dtype=float) / beta, alpha) - _ln(beta)


def _gompertz_log_hazard(y, alpha, beta):
    return _ln(alpha) + beta * np.asarray(y, dtype=float)


def _lfr_log_hazard(y, alpha, beta):
    return np.log(alpha + beta * np.asarray(y, dtype=float))


def _rayleigh_log_hazard(y, beta):
    return np.log(2.0 * np.asarray(y, dtype=float) / (beta * beta))


def _weibull_log_hazard(y, alpha, beta):
    r = np.asarray(y, dtype=float) / beta
    return np.log(alpha / beta) + (alpha - 1.0) * np.log(r)


BASE_DISTRIBUTIONS: dict[str, BaseDist] = {
    d.name: d
    for d in [
        BaseDist("birnbaum-saunders", ("alpha", "beta"), _bs_log_pdf, _bs_tail, _bs_quantile, _bs_isf, _bs_start, log_hazard=_bs_log_hazard),
        BaseDist("burrxii", ("alpha", "beta"), _burrxii_log_pdf, _burrxii_tail, _burrxii_quantile, _burrxii_isf, _burrxii_start),
        BaseDist("chen", ("alpha", "beta"), _chen_log_pdf, _chen_tail, _chen_quantile, _chen_isf, _chen_start, log_hazard=_chen_log_hazard),
        BaseDist("chisq", ("alpha",), _chisq_log_pdf, _chisq_tail, _chisq_quantile, _chisq_isf, _chisq_start, log_hazard=_chisq_log_hazard),
        BaseDist("exp", ("alpha",), _exp_log_pdf, _exp_tail, _exp_quantile, _exp_isf, _exp_start, log_hazard=_exp_log_hazard),
        BaseDist("f", ("alpha", "beta"), _f_log_pdf, _f_tail, _f_quantile, _f_isf, _f_start),
        BaseDist("frechet", ("alpha", "beta"), _frechet_log_pdf, _frechet_tail, _frechet_quantile, _frechet_isf, _frechet_start),
        BaseDist("gamma", ("alpha", "beta"), _gamma_log_pdf, _gamma_tail, _gamma_quantile, _gamma_isf, _gamma_start, log_hazard=_gamma_log_hazard),
        BaseDist("gompertz", ("alpha", "beta"), _gompertz_log_pdf, _gompertz_tail, _gompertz_quantile, _gompertz_isf, _gompertz_start, log_hazard=_gompertz_log_hazard),
        BaseDist("lfr", ("alpha", "beta"), _lfr_log_pdf, _lfr_tail, _lfr_quantile, _lfr_isf, _lfr_start, log_hazard=_lfr_log_hazard),
        BaseDist("log-logistic", ("alpha", "beta"), _loglogistic_log_pdf, _loglogistic_tail, _loglogistic_quantile, _loglogistic_isf, _loglogistic_start),
        BaseDist("log-normal", ("alpha", "beta"), _lognormal_log_pdf, _lognormal_tail, _lognormal_quantile, _lognormal_isf, _lognormal_start, real_params=(0,)),
        BaseDist("lomax", ("alpha", "beta"), _lomax_log_pdf, _lomax_tail, _lomax_quantile, _lomax_isf, _lomax_start),
        BaseDist("rayleigh", ("beta",), _rayleigh_log_pdf, _rayleigh_tail, _rayleigh_quantile, _rayleigh_isf, _rayleigh_start, log_hazard=_rayleigh_log_hazard),
        BaseDist("weibull", ("alpha", "beta"), _weibull_log_pdf, _weibull_tail, _weibull_quantile, _weibull_isf, _weibull_start, log_hazard=_weibull_log_hazard),
    ]
}


def get_base(name: str) -> BaseDist:
    try:
        return BASE_DISTRIBUTIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown base {name!r}; valid: {', '.join(sorted(BASE_DISTRIBUTIONS))}"
        ) from None


def _check_shape(dist: BaseDist, shape):
    for i, p in enumerate(shape):
        if i not in dist.real_params and p <= 0:
            raise ValueError(f"{dist.name} parameter {dist.param_names[i]} must be > 0")


def _resolve_base(name, params):
    """``(dist, shape, mu)`` with the name, the count and every domain checked."""
    dist = get_base(name)
    params = tuple(float(p) for p in params)
    if len(params) != dist.n_params + 1:
        raise ValueError(
            f"{dist.name} expects {dist.n_params} parameters plus mu, got {len(params)}"
        )
    _check_shape(dist, params[:-1])
    return dist, params[:-1], params[-1]


def _on_support(b, fn, x):
    """fn(y, *shape) at y = x - mu for a resolved base b; -inf outside the
    support y > 0 and wherever fn gives NaN."""
    _, shape, mu = b
    y = np.asarray(x, dtype=float) - mu
    inside = y > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = fn(np.where(inside, y, 1.0), *shape)
    out = np.where(inside, vals, -np.inf)
    return np.where(np.isnan(out), -np.inf, out)


def _base_tail(b, x):
    """``(G(x), 1 - G(x), -ln(1 - G(x)))`` for a resolved base b, each at full
    precision.

    Arrays shaped like ``x`` (0-d for a scalar).  Outside the support the
    triple is (0, 1, 0): every kernel gives u = 0 and sf = 1 exactly at y = 0,
    where those points (and NaN) are evaluated.  Below the median ``u`` is the
    precise value and both complements follow from it; from the median up they
    are the kernel's survival value and its log, which ``1 - u`` cannot carry,
    with the closed-form log only where the survival value has underflowed.
    At y = +inf the triple is (1, 0, +inf); a NaN the kernel makes at a
    finite y stays NaN.
    """
    dist, shape, mu = b
    y = np.asarray(x, dtype=float) - mu
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u, sf, log_sf = dist.tail(np.where(y > 0, y, 0.0), *shape)
        deep = sf < 1e-300
        # np.clip's values, at a fraction of its cost on short arrays
        u, sf = np.minimum(1.0, np.maximum(0.0, u)), np.minimum(1.0, np.maximum(0.0, sf))
        left = u < 0.5
        lsf = np.where(left, -np.log1p(-u), -np.log(sf))
        omu = np.where(left, 1.0 - u, sf)
        if np.count_nonzero(deep):
            lsf = np.where(deep, -np.minimum(log_sf(), 0.0), lsf)
    top = y == np.inf
    if np.count_nonzero(top):
        # the top of the support, where a kernel may form inf/inf
        u, omu, lsf = np.where(top, 1.0, u), np.where(top, 0.0, omu), np.where(top, np.inf, lsf)
    # u as an array even for a scalar x: numpy scalar and array arithmetic
    # may round differently, and the family kernels see arrays
    return np.asarray(u), omu, lsf


def _log_hazard(b, x, lsf):
    """log g/(1 - G) at x for a resolved base b; ``lsf`` is the tail triple's
    -ln(1 - G) at x, read only by bases without a closed-form hazard."""
    dist = b[0]
    # power-tailed bases never push -ln(sf) into the cancellation regime at
    # representable x, so the difference is safe
    fn = dist.log_hazard or (lambda y, *shape: dist.log_pdf(y, *shape) + lsf)
    return _on_support(b, fn, x)


def _invert(b, kernel, v):
    """mu + kernel(v, *shape), b's quantile (v = q) or isf (v = -ln sf); v = 0 gives mu."""
    _, shape, mu = b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = kernel(v, *shape)
    return mu + np.where(v == 0.0, 0.0, y)


def base_log_pdf(name, x, params):
    """log g(x, theta*); -inf outside the support x > mu."""
    b = _resolve_base(name, params)
    return _scalar(_on_support(b, b[0].log_pdf, x))


def base_pdf(name, x, params):
    return np.exp(base_log_pdf(name, x, params))


def base_log_hazard(name, x, params):
    """log of the hazard rate g/(1 - G); -inf outside the support x > mu.

    Unlike ``base_log_pdf(...) - log(base_sf(...))`` this stays accurate deep
    in the right tail, where both of those terms are huge and of opposite sign.
    """
    b = _resolve_base(name, params)
    lsf = None if b[0].log_hazard else _base_tail(b, x)[2]
    return _scalar(_log_hazard(b, x, lsf))


def base_cdf(name, x, params):
    return _scalar(_base_tail(_resolve_base(name, params), x)[0])


def base_sf(name, x, params):
    """Survival function 1 - cdf, at full precision in both tails."""
    return _scalar(_base_tail(_resolve_base(name, params), x)[1])


def base_log_sf(name, x, params):
    """ln of the survival function; stays finite far past sf underflow."""
    return _scalar(-_base_tail(_resolve_base(name, params), x)[2])


def base_quantile(name, q, params):
    b = _resolve_base(name, params)
    q = np.asarray(q, dtype=float)
    if np.any((q < 0) | (q > 1)):
        raise ValueError("quantile probabilities must lie in [0, 1]")
    return _scalar(_invert(b, b[0].quantile, q))


def base_isf(name, q, params):
    """Quantile expressed through the survival value: the x with sf(x) = q."""
    q = np.asarray(q, dtype=float)
    if np.any((q < 0) | (q > 1)):
        raise ValueError("survival probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        return base_isf_log(name, -np.log(q), params)


def base_isf_log(name, l, params):
    """Quantile at survival value exp(-l); l may exceed the underflow range."""
    b = _resolve_base(name, params)
    l = np.asarray(l, dtype=float)
    if np.any(l < 0):
        raise ValueError("base_isf_log requires l >= 0")
    return _scalar(_invert(b, b[0].isf, l))


def base_sample(name, n, params, seed=None, rng=None):
    """Inverse-transform sample of size n; reproducible given seed."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    if rng is None:
        rng = np.random.default_rng(seed)
    u = rng.uniform(size=n)
    return np.asarray(base_quantile(name, u, params), dtype=float).reshape(n)
