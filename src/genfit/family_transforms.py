"""The 24 generator families, each a chain of primitive maps.

Each family is a cdf-valued transform h: [0,1] -> [0,1] with one to three
induced shape parameters.  A composed distribution has cdf h(G(x)) where G is
a shifted base cdf, pdf h'(G(x)) g(x), and quantile G^{-1}(h^{-1}(p)).

A family is a ``chains.Spec``: its name, its parameter names, their domains
and its chain of the maps of ``chains``, the maps the bases are written in,
outermost first: kumg is ``[RP(b), P(a)]`` for h = RP(b) o P(a).  Every
composed function runs one chain from y = x - mu, the family's joined
outside the base's: the cdf and its upper tail from the chain's triple, the
log-density as ln of its slope, the quantile from the chain run backwards.
``h_forward``, ``log_h_prime`` and ``h_inverse`` run the family's chain alone
on a triple of u or p.

A public function looks its names up and builds its inputs once through
``chains.Model`` and ``_from_p``, which with ``_to_p`` hold the four tails
(see "The model boundary" and "The inputs and the outputs" there):
``Model((family, base), location)``, or ``Model((family,), False)`` for the
``h_*`` functions.  That checks the count and every domain and builds the
chain; the chains never check again.
"""

from __future__ import annotations

import numpy as np

from .base_distributions import _uniforms, get_base
from .chains import (
    _POS, B, E, GP, L1, LL, MO, OD, OP, P, Pw, QT, R, RP, Sc, Spec, TE, Model, _QUIET, _cdf, _forward_v,
    _from_p, _log_density, _log_slope, _quantile, _scalar, _state, _to_p
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
        v = _forward_v(steps, _from_p(u, "h_forward requires u"))
    return _scalar(np.minimum(1.0, np.maximum(0.0, v)))


def log_h_prime(name, u, induced):
    """log dh/du; may be +-inf at the endpoints, never NaN."""
    steps, _ = Model((get_family(name),), False).resolve(induced)
    with np.errstate(**_QUIET):
        out = _log_slope(steps, _from_p(u, "log_h_prime requires u"))
    return _scalar(np.where(np.isnan(out), -np.inf, out))


def _h_inverse(name, p, induced):
    """``(u, -ln(1 - u))`` at the u with h(u) = p."""
    steps, _ = Model((get_family(name),), False).resolve(induced)
    # -ln(1 - u) is the quantile of h over the base E, t -> 1 - e^-t
    with np.errstate(divide="ignore"):
        lsf = _quantile(steps + [E()], _from_p(p, "h_inverse requires p"))
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
    """h(G(x)) in the tail ``_to_p`` reads from the chain's triple."""
    steps, y = Model((get_family(family), get_base(base)), location).at(params, x)
    if lower_tail and not log_p:
        return _scalar(_cdf(steps, y))
    return _scalar(_to_p(_state(steps, y), log_p, lower_tail))


def family_quantile(family, base, p, params, location=True, log_p=False, lower_tail=True):
    steps, mu = Model((get_family(family), get_base(base)), location).resolve(params)
    with np.errstate(divide="ignore"):
        s = _from_p(p, log_p=log_p, lower_tail=lower_tail)
    return _scalar(mu + _quantile(steps, s))


def family_sample(family, base, n, params, location=True, seed=None, rng=None):
    """Inverse-transform sample: quantile applied to n seeded uniforms."""
    out = family_quantile(family, base, _uniforms(n, seed, rng), params, location)
    return np.asarray(out, dtype=float).reshape(n)
