"""The 15 location-shifted base distributions, each a chain of primitive maps.

Each base works on the shifted variable ``y = x - mu`` with support y > 0.
Parameter vectors are ``(shape/scale..., mu)``; every non-location parameter
lives on (0, inf) except the log-normal's first parameter, which is the
log-scale mean and may be any real.

A base is its name, its parameter names, its cdf G as a chain of the maps of
``chains`` from the state ``(y,)``, written outermost first, and a cheap
moment-based starting-value rule used by the fitter.  The hazard-form bases
end in E, t -> 1 - e^-t, after their cumulative hazard H: weibull is
``[E(), Pw(alpha), Sc(1/beta)]``.  The others end in a cdf map: GP (gamma,
chisq), LL (log-logistic), Fr (Frechet), B after t/(1 + t) (F), and N after
ln t or the Birnbaum-Saunders link (log-normal, Birnbaum-Saunders).

The public functions read everything from the chain and its runners (see
``chains``): the cdf, survival value and its log from the chain's triple,
the log-pdf as ln of its slope, the log-hazard as that of L1 o G (for a
hazard-form base the slope of H alone), and the quantile and inverse
survival from the chain run backwards.  Each checks the name, the count and
every domain of its parameter vector once (``_resolve_base``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .chains import (
    Af, B, BSL, E, Fr, GP, L1, LL, LN, Lp, N, ODI, Pw, Q, Sc, X, _cdf, _from_l, _join, _log_density,
    _quantile, _scalar, _state
)

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


@dataclass(frozen=True)
class BaseDist:
    """One shifted base distribution, parameterized by its unshifted y = x - mu."""

    name: str
    param_names: tuple[str, ...]
    chain: Callable  # chain(*shape) -> [map(*params), ...], outermost first
    start: Callable  # start(y) -> shape, a moment-type starting value
    # indices of parameters allowed to range over all reals (log-normal alpha)
    real_params: tuple[int, ...] = field(default=())

    @property
    def n_params(self) -> int:
        return len(self.param_names)


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


BASE_DISTRIBUTIONS: dict[str, BaseDist] = {
    d.name: d
    for d in [
        BaseDist("birnbaum-saunders", ("alpha", "beta"), lambda a, b: [N(), Af(0.0, a), BSL(), Sc(1.0 / b)],
                 _bs_start),
        BaseDist("burrxii", ("alpha", "beta"), lambda a, b: [E(), Sc(a), Lp(b)], _burrxii_start),
        BaseDist("chen", ("alpha", "beta"), lambda a, b: [E(), Sc(b), X(), Pw(a)], _chen_start),
        BaseDist("chisq", ("alpha",), lambda a: [GP(a / 2.0), Sc(0.5)], _chisq_start),
        BaseDist("exp", ("alpha",), lambda a: [E(), Sc(a)], _exp_start),
        BaseDist("f", ("alpha", "beta"), lambda a, b: [B(a / 2.0, b / 2.0), ODI(), Sc(a / b)], _f_start),
        BaseDist("frechet", ("alpha", "beta"), lambda a, b: [Fr(a), Sc(1.0 / b)], _frechet_start),
        BaseDist("gamma", ("alpha", "beta"), lambda a, b: [GP(a), Sc(1.0 / b)], _gamma_start),
        BaseDist("gompertz", ("alpha", "beta"), lambda a, b: [E(), Sc(a / b), X(), Sc(b)], _gompertz_start),
        BaseDist("lfr", ("alpha", "beta"), lambda a, b: [E(), Q(a, b)], _lfr_start),
        BaseDist("log-logistic", ("alpha", "beta"), lambda a, b: [LL(a), Sc(1.0 / b)], _loglogistic_start),
        BaseDist("log-normal", ("alpha", "beta"), lambda a, b: [N(), Af(a, b), LN()], _lognormal_start,
                 real_params=(0,)),
        BaseDist("lomax", ("alpha", "beta"), lambda a, b: [E(), Sc(a), Lp(1.0), Sc(b)], _lomax_start),
        BaseDist("rayleigh", ("beta",), lambda b: [E(), Pw(2.0), Sc(1.0 / b)], _rayleigh_start),
        BaseDist("weibull", ("alpha", "beta"), lambda a, b: [E(), Pw(a), Sc(1.0 / b)], _weibull_start),
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


def _base(name, params, x):
    """``(chain, y)`` for a base and its parameters at the points x."""
    dist, shape, mu = _resolve_base(name, params)
    return dist.chain(*shape), np.asarray(x, dtype=float) - mu


def base_log_pdf(name, x, params):
    """log g(x, theta*); -inf outside the support x > mu."""
    return _scalar(_log_density(*_base(name, params, x)))


def base_pdf(name, x, params):
    return np.exp(base_log_pdf(name, x, params))


def base_log_hazard(name, x, params):
    """log of the hazard rate g/(1 - G); -inf outside the support x > mu.

    Unlike ``base_log_pdf(...) - log(base_sf(...))`` this stays accurate deep
    in the right tail, where both of those terms are huge and of opposite sign.
    """
    steps, y = _base(name, params, x)
    return _scalar(_log_density(_join([L1()], steps), y))


def base_cdf(name, x, params):
    return _scalar(_cdf(*_base(name, params, x)))


def base_sf(name, x, params):
    """Survival function 1 - cdf, at full precision in both tails."""
    return _scalar(_state(*_base(name, params, x))[1])


def base_log_sf(name, x, params):
    """ln of the survival function; stays finite far past sf underflow."""
    return _scalar(-_state(*_base(name, params, x))[2])


def base_quantile(name, q, params):
    dist, shape, mu = _resolve_base(name, params)
    q = np.asarray(q, dtype=float)
    if np.any((q < 0) | (q > 1)):
        raise ValueError("quantile probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        return _scalar(mu + _quantile(dist.chain(*shape), (q, 1.0 - q, -np.log1p(-q))))


def base_isf(name, q, params):
    """Quantile expressed through the survival value: the x with sf(x) = q."""
    q = np.asarray(q, dtype=float)
    if np.any((q < 0) | (q > 1)):
        raise ValueError("survival probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        return base_isf_log(name, -np.log(q), params)


def base_isf_log(name, l, params):
    """Quantile at survival value exp(-l); l may exceed the underflow range."""
    dist, shape, mu = _resolve_base(name, params)
    l = np.asarray(l, dtype=float)
    if np.any(l < 0):
        raise ValueError("base_isf_log requires l >= 0")
    return _scalar(mu + _quantile(dist.chain(*shape), _from_l(l)))


def _uniforms(n, seed, rng):
    """n seeded uniforms, for an inverse-transform sample."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    return (np.random.default_rng(seed) if rng is None else rng).uniform(size=n)


def base_sample(name, n, params, seed=None, rng=None):
    """Inverse-transform sample of size n; reproducible given seed."""
    return np.asarray(base_quantile(name, _uniforms(n, seed, rng), params), dtype=float).reshape(n)
