"""The 24 generator families, each a chain of primitive maps.

Each family is a cdf-valued transform h: [0,1] -> [0,1] with one to three
induced shape parameters.  A composed distribution has cdf h(G(x)) where G is
a shifted base cdf, pdf h'(G(x)) g(x), and quantile G^{-1}(h^{-1}(p)).

A family is its name, its parameter names, their domains and its chain of
the maps of ``chains``, the maps the bases are written in, outermost first:
kumg is ``[RP(b), P(a)]`` for h = RP(b) o P(a).  ``_resolve`` joins the
family's chain outside the base's, and every composed function runs that one
chain from y = x - mu: the cdf and its upper tail from the chain's triple,
the log-density as ln of its slope, the quantile from the chain run
backwards on the triple of p, or on ``(1 - q, q, -ln q)`` for an upper-tail
q.  ``h_forward``, ``log_h_prime`` and ``h_inverse`` run the family's chain
alone on a triple of u or p.

A public function resolves the names and checks the count and every domain
of theta once (``_resolve``, or ``_resolve_family`` for the ``h_*``
functions); the chains never check again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .base_distributions import _check_shape, _uniforms, get_base
from .chains import (
    B, E, GP, L1, LL, MO, OD, OP, P, Pw, QT, R, RP, Sc, TE, _QUIET, _cdf, _forward_v, _join, _lnv,
    _log_density, _log_slope, _quantile, _scalar, _state
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


@dataclass(frozen=True)
class FamilySpec:
    """One generator transform: its induced parameters and its chain."""

    name: str
    param_names: tuple[str, ...]
    # open interval per induced parameter
    domains: tuple[tuple[float, float], ...]
    chain: Callable  # chain(*induced) -> [map(*params), ...], outermost first

    @property
    def n_induced(self) -> int:
        return len(self.param_names)


_POS = (0.0, math.inf)


def _family(name, params, chain, domains=None):
    return FamilySpec(name, tuple(params), domains or (_POS,) * len(params), chain)


FAMILIES: dict[str, FamilySpec] = {
    f.name: f
    for f in [
        _family("betaexpg", "abd", lambda a, b, d: [B(b, a), RP(d)]),
        _family("betag", "ab", lambda a, b: [B(a, b)]),
        _family("expexppg", "ab", lambda a, b: [TE(b), P(a)]),
        _family("expg", "a", lambda a: [P(a)]),
        _family("expgg", "ab", lambda a, b: [P(b), RP(a)]),
        _family("expkumg", "abd", lambda a, b, d: [P(d), RP(b), P(a)]),
        _family("gammag", "a", lambda a: [GP(a), L1()]),
        _family("gammag1", "a", lambda a: [R(), GP(a), L1(), R()]),
        _family("gammag2", "a", lambda a: [GP(a), OD()]),
        _family("gbetag", "abd", lambda a, b, d: [B(a, b), P(d)]),
        _family("gexppg", "ab", lambda a, b: [MO(1.0 - b), R(), TE(a), R()], (_POS, (0.0, 1.0))),
        _family("gmbetaexpg", "ab", lambda a, b: [P(a), E(), Sc(b), OD()]),
        _family("gtransg", "ab", lambda a, b: [P(a), QT(b)], (_POS, (-1.0, 1.0))),
        _family("gxlogisticg", "a", lambda a: [LL(a), L1()]),
        _family("kumg", "ab", lambda a, b: [RP(b), P(a)]),
        _family("loggammag1", "ab", lambda a, b: [GP(a), Sc(b), L1()]),
        _family("loggammag2", "ab", lambda a, b: [R(), GP(a), Sc(b), L1(), R()]),
        _family("mbetag", "abd", lambda a, b, d: [B(a, b), MO(1.0 / d)]),
        _family("mog", "a", lambda a: [MO(a)]),
        _family("mokumg", "abd", lambda a, b, d: [MO(d), RP(b), P(a)]),
        _family("ologlogg", "abd", lambda a, b, d: [RP(b), P(a), OP(d)]),
        _family("texpsg", "a", lambda a: [TE(a)]),
        _family("weibullextg", "ab", lambda a, b: [E(), Sc(a), Pw(1.0 / b), OD()]),
        _family("weibullg", "ab", lambda a, b: [E(), Pw(a), Sc(1.0 / b), L1()]),
    ]
}


def get_family(name: str) -> FamilySpec:
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown family {name!r}; valid: {', '.join(sorted(FAMILIES))}"
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


def _steps(fam, dist, induced, shape):
    """The composition's one chain: the family's outside the base's."""
    return _join(fam.chain(*induced), dist.chain(*shape))


def _resolve(family, base, params, location):
    """``(chain, mu)`` from a full parameter vector: induced a[, b[, d]]
    first, base shapes next, mu last (0 when ``location`` is off)."""
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
    return _steps(fam, dist, induced, shape), params[-1] if location else 0.0


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
    with np.errstate(**_QUIET):
        v = _forward_v(fam.chain(*induced), (u, *_complements(u, one_minus_u, neg_log_sf)))
    return _scalar(np.minimum(1.0, np.maximum(0.0, v)))


def log_h_prime(name, u, induced, one_minus_u=None, neg_log_sf=None):
    """log dh/du; may be +-inf at the endpoints, never NaN."""
    fam, induced = _resolve_family(name, induced)
    u = np.asarray(u, dtype=float)
    with np.errstate(**_QUIET):
        out = _log_slope(fam.chain(*induced), (u, *_complements(u, one_minus_u, neg_log_sf)))
    return _scalar(np.where(np.isnan(out), -np.inf, out))


def _h_inverse(name, p, induced):
    """``(u, -ln(1 - u))`` at the u with h(u) = p."""
    fam, induced = _resolve_family(name, induced)
    p = np.asarray(p, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("h_inverse requires p in [0, 1]")
    # -ln(1 - u) is the quantile of h over the base E, t -> 1 - e^-t
    with np.errstate(divide="ignore"):
        lsf = _quantile(fam.chain(*induced) + [E()], (p, 1.0 - p, -np.log1p(-p)))
    return -np.expm1(-lsf), lsf


def h_inverse(name, p, induced):
    """The u with h(u) = p."""
    return _scalar(_h_inverse(name, p, induced)[0])


def n_total_params(family, base, location=True):
    return get_family(family).n_induced + get_base(base).n_params + (1 if location else 0)


def family_log_pdf(family, base, x, params, location=True):
    steps, mu = _resolve(family, base, params, location)
    return _scalar(_log_density(steps, np.asarray(x, dtype=float) - mu))


def family_pdf(family, base, x, params, location=True, log=False):
    lp = family_log_pdf(family, base, x, params, location)
    if log:
        return lp
    with np.errstate(over="ignore"):
        out = np.exp(lp)
    return out if np.ndim(out) else float(out)


def family_cdf(family, base, x, params, location=True, log_p=False, lower_tail=True):
    """h(G(x)); with ``lower_tail`` off the chain's own 1 - h and, with
    ``log_p``, its own ln(1 - h), never 1 - h by subtraction; ln h from 1 - h
    where h > 1/2."""
    steps, mu = _resolve(family, base, params, location)
    y = np.asarray(x, dtype=float) - mu
    if lower_tail and not log_p:
        return _scalar(_cdf(steps, y))
    v, w, l = _state(steps, y)
    if lower_tail:
        with np.errstate(divide="ignore"):
            return _scalar(_lnv(v, w))
    return _scalar(-l if log_p else w)


def family_quantile(family, base, p, params, location=True, log_p=False, lower_tail=True):
    steps, mu = _resolve(family, base, params, location)
    p = np.asarray(p, dtype=float)
    prob = np.exp(p) if log_p else p
    if np.any((prob < 0) | (prob > 1)):
        raise ValueError("quantile probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        # the upper-tail probability q starts the chain as (1 - q, q, -ln q)
        if lower_tail:
            s = (prob, 1.0 - prob, -np.log1p(-prob))
        else:
            s = (1.0 - prob, prob, -(p if log_p else np.log(prob)))
    return _scalar(mu + _quantile(steps, s))


def family_sample(family, base, n, params, location=True, seed=None, rng=None):
    """Inverse-transform sample: quantile applied to n seeded uniforms."""
    out = family_quantile(family, base, _uniforms(n, seed, rng), params, location)
    return np.asarray(out, dtype=float).reshape(n)
