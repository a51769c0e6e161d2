"""The 24 generator families, each a chain of primitive maps.

Each family is a cdf-valued transform h: [0,1] -> [0,1] with one to three
induced shape parameters.  A composed distribution has cdf h(G(x)) where G is
a shifted base cdf, pdf h'(G(x)) g(x), and quantile G^{-1}(h^{-1}(p)).

A family is a ``chains.Spec``: its name, its parameter names, their domains
and its chain of the maps of ``chains``, the maps the bases are written in,
outermost first: kumg is ``[RP(b), P(a)]`` for h = RP(b) o P(a).  Every
composed function runs one chain from y = x - mu, the family's joined
outside the base's: the cdf and its upper tail from the chain's triple, the
log-density as ln of its slope, the quantile from the chain run backwards on
the triple of p, or on ``(1 - q, q, -ln q)`` for an upper-tail q.
``h_forward``, ``log_h_prime`` and ``h_inverse`` run the family's chain alone
on a triple of u or p.

A public function looks its names up and builds its inputs once through
``chains.Model`` (see "The model boundary" and "The inputs" there):
``Model((family, base), location)``, or ``Model((family,), False)`` for the
``h_*`` functions.  That checks the count and every domain and builds the
chain; the chains never check again.
"""

from __future__ import annotations

import numpy as np

from .base_distributions import _uniforms, get_base
from .chains import (
    _POS, B, E, GP, L1, LL, MO, OD, OP, P, Pw, QT, R, RP, Sc, Spec, TE, Model, _QUIET, _cdf, _forward_v,
    _from_l, _from_p, _lnv, _log_density, _log_slope, _quantile, _scalar, _state, _unit
)

__all__ = [
    "FAMILIES",
    "get_family",
    "h_forward",
    "log_h_prime",
    "h_inverse",
    "family_log_pdf",
    "family_pdf",
    "family_cdf",
    "family_quantile",
    "family_sample",
]


FAMILIES: dict[str, Spec] = {
    f.name: f
    for f in [
        Spec("betaexpg", "abd", lambda a, b, d: [B(b, a), RP(d)]),
        Spec("betag", "ab", lambda a, b: [B(a, b)]),
        Spec("expexppg", "ab", lambda a, b: [TE(b), P(a)]),
        Spec("expg", "a", lambda a: [P(a)]),
        Spec("expgg", "ab", lambda a, b: [P(b), RP(a)]),
        Spec("expkumg", "abd", lambda a, b, d: [P(d), RP(b), P(a)]),
        Spec("gammag", "a", lambda a: [GP(a), L1()]),
        Spec("gammag1", "a", lambda a: [R(), GP(a), L1(), R()]),
        Spec("gammag2", "a", lambda a: [GP(a), OD()]),
        Spec("gbetag", "abd", lambda a, b, d: [B(a, b), P(d)]),
        Spec("gexppg", "ab", lambda a, b: [MO(1.0 - b), R(), TE(a), R()], (_POS, (0.0, 1.0))),
        Spec("gmbetaexpg", "ab", lambda a, b: [P(a), E(), Sc(b), OD()]),
        Spec("gtransg", "ab", lambda a, b: [P(a), QT(b)], (_POS, (-1.0, 1.0))),
        Spec("gxlogisticg", "a", lambda a: [LL(a), L1()]),
        Spec("kumg", "ab", lambda a, b: [RP(b), P(a)]),
        Spec("loggammag1", "ab", lambda a, b: [GP(a), Sc(b), L1()]),
        Spec("loggammag2", "ab", lambda a, b: [R(), GP(a), Sc(b), L1(), R()]),
        Spec("mbetag", "abd", lambda a, b, d: [B(a, b), MO(1.0 / d)]),
        Spec("mog", "a", lambda a: [MO(a)]),
        Spec("mokumg", "abd", lambda a, b, d: [MO(d), RP(b), P(a)]),
        Spec("ologlogg", "abd", lambda a, b, d: [RP(b), P(a), OP(d)]),
        Spec("texpsg", "a", lambda a: [TE(a)]),
        Spec("weibullextg", "ab", lambda a, b: [E(), Sc(a), Pw(1.0 / b), OD()]),
        Spec("weibullg", "ab", lambda a, b: [E(), Pw(a), Sc(1.0 / b), L1()]),
    ]
}


def get_family(name: str) -> Spec:
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown family {name!r}; valid: {', '.join(sorted(FAMILIES))}"
        ) from None


def h_forward(name, u, induced):
    """Transform value h(u); h(0) = 0, h(1) = 1, nondecreasing."""
    steps, _ = Model((get_family(name),), False).resolve(induced)
    with np.errstate(**_QUIET):
        v = _forward_v(steps, _from_p(_unit(u, "h_forward requires u")))
    return _scalar(np.minimum(1.0, np.maximum(0.0, v)))


def log_h_prime(name, u, induced):
    """log dh/du; may be +-inf at the endpoints, never NaN."""
    steps, _ = Model((get_family(name),), False).resolve(induced)
    with np.errstate(**_QUIET):
        out = _log_slope(steps, _from_p(_unit(u, "log_h_prime requires u")))
    return _scalar(np.where(np.isnan(out), -np.inf, out))


def _h_inverse(name, p, induced):
    """``(u, -ln(1 - u))`` at the u with h(u) = p."""
    steps, _ = Model((get_family(name),), False).resolve(induced)
    # -ln(1 - u) is the quantile of h over the base E, t -> 1 - e^-t
    with np.errstate(divide="ignore"):
        lsf = _quantile(steps + [E()], _from_p(_unit(p, "h_inverse requires p")))
    return -np.expm1(-lsf), lsf


def h_inverse(name, p, induced):
    """The u with h(u) = p."""
    return _scalar(_h_inverse(name, p, induced)[0])


def family_log_pdf(family, base, x, params, location=True):
    return _scalar(_log_density(*Model((get_family(family), get_base(base)), location).at(params, x)))


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
    steps, y = Model((get_family(family), get_base(base)), location).at(params, x)
    if lower_tail and not log_p:
        return _scalar(_cdf(steps, y))
    v, w, l = _state(steps, y)
    if lower_tail:
        with np.errstate(divide="ignore"):
            return _scalar(_lnv(v, w))
    return _scalar(-l if log_p else w)


def family_quantile(family, base, p, params, location=True, log_p=False, lower_tail=True):
    steps, mu = Model((get_family(family), get_base(base)), location).resolve(params)
    p = np.asarray(p, dtype=float)
    prob = np.exp(p) if log_p else p
    if np.any((prob < 0) | (prob > 1)):
        raise ValueError("quantile probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        # the upper-tail probability q starts the chain as (1 - q, q, -ln q);
        # from ln p, 1 - e^p is -expm1(p), and -ln(1 - e^p) follows Maechler's
        # (2012) log1mexp rule, so near ln p = 0 neither is formed by subtraction
        if not log_p:
            s = _from_p(prob) if lower_tail else (1.0 - prob, prob, -np.log(prob))
        elif lower_tail:
            w = -np.expm1(p)
            s = (prob, w, -np.where(p > -np.log(2.0), np.log(w), np.log1p(-prob)))
        else:
            s = _from_l(-p)
    return _scalar(mu + _quantile(steps, s))


def family_sample(family, base, n, params, location=True, seed=None, rng=None):
    """Inverse-transform sample: quantile applied to n seeded uniforms."""
    out = family_quantile(family, base, _uniforms(n, seed, rng), params, location)
    return np.asarray(out, dtype=float).reshape(n)
