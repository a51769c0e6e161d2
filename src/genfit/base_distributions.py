"""The 15 location-shifted base distributions, each a chain of primitive maps.

Each base works on the shifted variable ``y = x - mu`` with support y > 0.
Parameter vectors are ``(shape/scale..., mu)``; every non-location parameter
lives on (0, inf) except the log-normal's first parameter, which is the
log-scale mean and may be any real.

A base is a ``chains.Spec``: its name, its parameter names, its cdf G as a
chain of the maps of ``chains`` from the state ``(y,)``, written outermost
first, and a cheap moment-based starting-value rule used by the fitter.  The
hazard-form bases end in E, t -> 1 - e^-t, after their cumulative hazard H:
weibull is ``[E(), Pw(alpha), Sc(1/beta)]``.  The others end in a cdf map: GP
(gamma, chisq), LL (log-logistic), Fr (Frechet), B after t/(1 + t) (F), and N
after ln t or the Birnbaum-Saunders link (log-normal, Birnbaum-Saunders).

The public functions read everything from the chain and its runners (see
``chains``): the cdf, survival value and its log from the chain's triple,
the log-pdf as ln of its slope, the log-hazard as that of L1 o G (for a
hazard-form base the slope of H alone), and the quantile from the chain run
backwards; the quantile at a survival value is ``family_quantile`` over
expg at a = 1, the identity family, with ``lower_tail`` off.  Each looks the
name up and builds its inputs once through ``chains.Model((base,))`` (see
"The model boundary" and "The inputs and the outputs" there), which checks
the count and every domain.
"""

from __future__ import annotations

import math

import numpy as np

from .chains import (
    _POS, _REAL, Af, B, BSL, E, Fr, GP, L1, LL, LN, Lp, Model, N, ODI, Pw, Q, Sc, Spec, X, _cdf, _from_p,
    _join, _log_density, _quantile, _scalar, _state, _to_p
)

__all__ = [
    "BASE_DISTRIBUTIONS",
    "base_log_pdf",
    "base_pdf",
    "base_cdf",
    "base_sf",
    "base_log_sf",
    "base_quantile",
    "base_sample",
    "get_base",
]


# --- starting values on y = x - mu -------------------------------------------

def _bs_start(y):
    m = np.mean(y)
    cv = np.std(y) / m
    alpha = float(np.clip(cv, 0.1, 5.0))
    return alpha, m / (1.0 + alpha * alpha / 2.0)


def _burrxii_start(y):
    med = np.median(y)
    return math.log(2.0) / math.log1p(med), 1.0


def _chen_start(y):
    med = np.median(y)
    # past med = 30 e^med overflows beta's scale; alpha = 1/ln(med) puts
    # med^alpha at e, so beta below still places the median at med
    alpha = 1.0 if med < 30 else 1.0 / math.log(med)
    return alpha, math.log(2.0) / math.expm1(med**alpha)


def _chisq_start(y):
    return (float(np.mean(y)),)


def _exp_start(y):
    return (1.0 / float(np.mean(y)),)


def _f_start(y):
    m = float(np.mean(y))
    beta = 2.0 * m / (m - 1.0) if m > 1.2 else 4.0
    return 2.0, float(np.clip(beta, 2.5, 100.0))


def _frechet_start(y):
    med = float(np.median(y))
    alpha = 2.0
    return alpha, med * math.log(2.0) ** (1.0 / alpha)


def _gamma_start(y):
    m, s = float(np.mean(y)), float(np.std(y))
    s = max(s, 1e-8 * max(m, 1.0))
    return (m / s) ** 2, s * s / m


def _gompertz_start(y):
    m = float(np.mean(y))
    beta = 1.0 / m
    med = float(np.median(y))
    alpha = math.log(2.0) * beta / math.expm1(beta * med)
    return alpha, beta


def _lfr_start(y):
    m = float(np.mean(y))
    return 1.0 / m, 1.0 / (m * m)


def _loglogistic_start(y):
    q25, med, q75 = np.quantile(y, [0.25, 0.5, 0.75])
    spread = math.log(q75 / q25) if q75 > q25 > 0 else 1.0
    return float(np.clip(math.log(9.0) / spread, 0.2, 20.0)), float(med)


def _lognormal_start(y):
    ly = np.log(y)
    return float(np.mean(ly)), max(float(np.std(ly)), 1e-3)


def _lomax_start(y):
    return 2.0, 1.0 / float(np.mean(y))


def _rayleigh_start(y):
    return (math.sqrt(float(np.mean(np.square(y)))),)


def _weibull_start(y):
    m, s = float(np.mean(y)), float(np.std(y))
    cv = max(s / m, 1e-3)
    alpha = float(np.clip(cv**-1.086, 0.2, 20.0))  # Justus approximation
    return alpha, m / math.gamma(1.0 + 1.0 / alpha)


BASE_DISTRIBUTIONS: dict[str, Spec] = {
    d.name: d
    for d in [
        Spec("birnbaum-saunders", ("alpha", "beta"), lambda a, b: [N(), Af(0.0, a), BSL(), Sc(1.0 / b)],
             start=_bs_start),
        Spec("burrxii", ("alpha", "beta"), lambda a, b: [E(), Sc(a), Lp(b)], start=_burrxii_start),
        Spec("chen", ("alpha", "beta"), lambda a, b: [E(), Sc(b), X(), Pw(a)], start=_chen_start),
        Spec("chisq", ("alpha",), lambda a: [GP(a / 2.0), Sc(0.5)], start=_chisq_start),
        Spec("exp", ("alpha",), lambda a: [E(), Sc(a)], start=_exp_start),
        Spec("f", ("alpha", "beta"), lambda a, b: [B(a / 2.0, b / 2.0), ODI(), Sc(a / b)], start=_f_start),
        Spec("frechet", ("alpha", "beta"), lambda a, b: [Fr(a), Sc(1.0 / b)], start=_frechet_start),
        Spec("gamma", ("alpha", "beta"), lambda a, b: [GP(a), Sc(1.0 / b)], start=_gamma_start),
        Spec("gompertz", ("alpha", "beta"), lambda a, b: [E(), Sc(a / b), X(), Sc(b)], start=_gompertz_start),
        Spec("lfr", ("alpha", "beta"), lambda a, b: [E(), Q(a, b)], start=_lfr_start),
        Spec("log-logistic", ("alpha", "beta"), lambda a, b: [LL(a), Sc(1.0 / b)], start=_loglogistic_start),
        Spec("log-normal", ("alpha", "beta"), lambda a, b: [N(), Af(a, b), LN()], (_REAL, _POS), _lognormal_start),
        Spec("lomax", ("alpha", "beta"), lambda a, b: [E(), Sc(a), Lp(1.0), Sc(b)], start=_lomax_start),
        Spec("rayleigh", ("beta",), lambda b: [E(), Pw(2.0), Sc(1.0 / b)], start=_rayleigh_start),
        Spec("weibull", ("alpha", "beta"), lambda a, b: [E(), Pw(a), Sc(1.0 / b)], start=_weibull_start),
    ]
}


def get_base(name: str) -> Spec:
    try:
        return BASE_DISTRIBUTIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown base {name!r}; valid: {', '.join(sorted(BASE_DISTRIBUTIONS))}"
        ) from None


def base_log_pdf(name, x, params):
    """log g(x, theta*); -inf outside the support x > mu."""
    return _scalar(_log_density(*Model((get_base(name),)).at(params, x)))


def base_pdf(name, x, params):
    return np.exp(base_log_pdf(name, x, params))


def base_log_hazard(name, x, params):
    """log of the hazard rate g/(1 - G); -inf outside the support x > mu.

    Unlike ``base_log_pdf(...) - log(base_sf(...))`` this stays accurate deep
    in the right tail, where both of those terms are huge and of opposite sign.
    """
    steps, y = Model((get_base(name),)).at(params, x)
    return _scalar(_log_density(_join([L1()], steps), y))


def base_cdf(name, x, params):
    return _scalar(_cdf(*Model((get_base(name),)).at(params, x)))


def base_sf(name, x, params):
    """Survival function 1 - cdf, at full precision in both tails."""
    return _scalar(_to_p(_state(*Model((get_base(name),)).at(params, x)), lower_tail=False))


def base_log_sf(name, x, params):
    """ln of the survival function; stays finite far past sf underflow."""
    return _scalar(_to_p(_state(*Model((get_base(name),)).at(params, x)), log_p=True, lower_tail=False))


def base_quantile(name, q, params):
    steps, mu = Model((get_base(name),)).resolve(params)
    with np.errstate(divide="ignore"):
        return _scalar(mu + _quantile(steps, _from_p(q)))


def _uniforms(n, seed, rng):
    """n seeded uniforms, for an inverse-transform sample."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    return (np.random.default_rng(seed) if rng is None else rng).uniform(size=n)


def base_sample(name, n, params, seed=None, rng=None):
    """Inverse-transform sample of size n; reproducible given seed."""
    return np.asarray(base_quantile(name, _uniforms(n, seed, rng), params), dtype=float).reshape(n)
