"""The 24 generator families, each a chain of primitive maps.

Each family is a cdf-valued transform h: [0,1] -> [0,1] with one to three
induced shape parameters.  A composed distribution has cdf h(G(x)) where G is
a shifted base cdf, pdf h'(G(x)) g(x), and quantile G^{-1}(h^{-1}(p)).

Chains.  Every h is a composition of a few primitive maps, the T-X view of G
families (Alzaatreh, Lee & Famoye 2013; Jones 2015).  A map of the unit
interval carries the triple ``(v, 1 - v, -ln(1 - v))`` to the next triple:
P (power), RP (reflected power), MO (Marshall-Olkin), OP (odds power),
B (beta cdf), TE (truncated exponential), QT (quadratic transmutation) and
R (reflection).  L1 = -ln(1 - v) and OD = v/(1 - v) carry a triple to t on
(0, inf), Sc scales t, and GP (gamma cdf), W (Weibull cdf) and LL
(log-logistic cdf) carry t back; -ln v is L1 o R, and the gamma upper tail
R o GP.  A family is its name, its parameter names, their domains and its
chain, written outermost first: kumg is ``[RP(b), P(a)]`` for
h = RP(b) o P(a).  The chain runs innermost first from the base triple of
``_base_tail``.

The chain contract.  Each primitive gives its forward map, ln|phi'| at its
input state, and its inverse on the same state.  ln h' is the sum of the
ln|phi'| terms, each at its own state; h^{-1} runs the chain backwards from
the triple of p, or from ``(1 - q, q, -ln q)`` for an upper-tail q.  Every
element of a state comes from the side that holds its precision: below 1/2
from v, from 1 - v or -ln(1 - v) above it (``_l``, ``_lnv``), and a special
function runs once per element, on the side picked for that element.  Past
the underflow of 1 - v only -ln(1 - v) still carries the upper tail; a map
that does not carry it exactly declares its behaviour at 1,
``1 - phi(v) ~ e^lam (1 - v)^q`` (``top``), and the chain applies that
there.  Likewise ln h' follows ln v past the underflow of v by each map's
behaviour at 0, ``phi(v) ~ e^mu v^r`` (``bot``; None for R, which sends
ln v to -ln(1 - v)).  A state's -ln(1 - v) that only repeats its v and
1 - v is formed when a map reads it, and ``_h`` asks the outermost map for
v alone.  Where a chain starts with L1, whose ln|phi'| is
-ln(1 - u), the composite log-density is the other terms plus the base
log-hazard, so the two large +-ln(1 - u) terms never meet.

The non-finite rule.  Maps run only inside the private cores (``_h``,
``_lhp``, ``_inverse``, ``_log_density``), which silence numpy's
floating-point warnings for them and own what a NaN becomes: ``_h`` sends an
endpoint's 0/0 or inf/inf to the nearer end and keeps a NaN the base made,
and the log-density reads NaN as a zero density.  ``family_quantile`` takes
the base quantile of u where u <= 1/2 and the base inverse survival of
-ln(1 - u) above.

Checking.  A public function resolves the names and checks the count and
every domain of theta once (``_resolve``, or ``_resolve_family`` for the
``h_*`` functions); the private cores it hands the specs to never check again.
In the forward maps, ln|phi'| and the end rules, a parameter is a float or a
(B, 1) column, one entry per row of a (B, n) state (``mps_fit._spacing_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special as sc

from .base_distributions import (
    _base_tail,
    _beta_sides,
    _check_shape,
    _em1,
    _invert,
    _log_hazard,
    _ln,
    _ln1p,
    _on_support,
    _pow,
    _scalar,
    get_base,
)
from .special_functions import _log_q_asymptote, inv_reg_inc_gamma_upper_from_log

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

_TINY = 1e-300  # below this a probability has lost its precision to underflow


# --- primitive maps ------------------------------------------------------------

def _l(v, w):
    """-ln w for w = 1 - v, taken from v below 1/2."""
    return -np.where(v < 0.5, np.log1p(-v), np.log(w))


def _lnv(v, w):
    """ln v, taken from w = 1 - v from 1/2 up."""
    return np.where(v < 0.5, np.log(v), np.log1p(-w))


def _full(s):
    """State s with its -ln(1 - v) filled in where the map that made it left
    that to the reader (None)."""
    return s if len(s) == 1 or s[2] is not None else (s[0], s[1], _l(s[0], s[1]))


def _xl(c, lv):
    """c * lv, and 0 at c = 0 even where lv is infinite."""
    if isinstance(c, float):
        return c * lv if c != 0.0 else 0.0
    return np.where(c == 0.0, 0.0, c * lv)


def _from_l(l):
    """The triple at -ln(1 - v) = l."""
    e = -l
    return -np.expm1(e), np.exp(e), l


def _logistic(z):
    """The triple at logit(v) = z."""
    return sc.expit(z), sc.expit(-z), np.logaddexp(0.0, z)


class _Map:
    """A primitive map: ``fwd(*state, *p)``, ``lpd(ln v, *state, *p)`` (ln|phi'|
    at the state, given ln of its first element), ``inv(*state, *p)``, and
    ``bot(*p) -> (r, mu)``, ``top(*p) -> (q, lam)`` as in the module docstring
    (top None: the map carries -ln(1 - v) exactly).  A forward map that would
    only form -ln(1 - v) from its own v and 1 - v leaves it None for the
    reader; ``reads_l`` marks the forward maps that read it.  ``v(*state, *p)``
    and ``w(*state, *p)`` give the forward map's v or 1 - v alone, for the
    outermost map of ``_h``, where forming the whole state costs more."""

    def __init__(self, fwd, lpd, inv, bot=lambda *p: (1.0, 0.0), top=None, reads_l=False, v=None, w=None):
        self.fwd, self.lpd, self.inv, self.bot, self.top, self.reads_l = fwd, lpd, inv, bot, top, reads_l
        self.v, self.w = v or (lambda *a: fwd(*a)[0]), w or (lambda *a: fwd(*a)[1])

    def __call__(self, *p):
        return self, p


def _pow_fwd(v, w, l, a):
    return v**a, -np.expm1(a * _lnv(v, w)), None


def _pow_inv(v, w, l, a):
    u, omu = v ** (1.0 / a), -np.expm1(_lnv(v, w) / a)
    return u, omu, _l(u, omu)


def _mo_fwd(v, w, l, c):
    cw = c * w
    den = v + cw
    return v / den, cw / den, None


def _te_fwd(v, w, l, c):
    em = _em1(-c)
    return np.expm1(-c * v) / em, np.exp(-c * v) * np.expm1(-c * w) / em, None


def _te_inv(v, w, l, c):
    # u = -ln(1 + v (e^-c - 1))/c, or where that argument nears 0 its form
    # -ln(1 - v + v e^-c)/c from ln(1 - v) and ln v
    x, lnv = v * _em1(-c), _lnv(v, w)
    u = np.where(x > -0.5, -np.log1p(x), -np.logaddexp(-l, lnv - c)) / c
    omu = np.logaddexp(lnv, c - l) / c
    return u, omu, _l(u, omu)


def _qt_fwd(v, w, l, b):
    return v * (1.0 + b * w), w * (1.0 - b * v), None


def _qt_inv(v, w, l, b):
    # the roots of b u^2 - (1 + b) u + v = 0 and of its mirror in 1 - u,
    # written without cancellation
    u = 2.0 * v / (1.0 + b + np.sqrt((1.0 + b) ** 2 - 4.0 * b * v))
    omu = 2.0 * w / (1.0 - b + np.sqrt((1.0 - b) ** 2 + 4.0 * b * w))
    return u, omu, _l(u, omu)


def _gamma_fwd(t, a):
    # Q(a, t) where scipy's own P(a, t) would be 1 - Q(a, t)
    t = np.asarray(t)
    up = t > np.maximum(1.0, a)
    # a column of shapes (one per row of t) is spread over t for the masks
    a_lo, a_up = (np.broadcast_to(a, t.shape)[m] for m in (~up, up)) if np.ndim(a) else (a, a)
    i = np.empty(t.shape)
    i[~up], i[up] = sc.gammainc(a_lo, t[~up]), sc.gammaincc(a_up, t[up])
    j = 1.0 - i
    v, w = np.where(up, j, i), np.where(up, i, j)
    if not np.count_nonzero(w < _TINY):
        return v, w, None
    return v, w, np.where(up & (i < _TINY), -_log_q_asymptote(t, a), _l(v, w))


def _gamma_inv(v, w, l, a):
    v, l = np.asarray(v), np.asarray(l)
    lo = v < 0.5
    t = np.empty(v.shape)
    t[lo], t[~lo] = sc.gammaincinv(a, v[lo]), inv_reg_inc_gamma_upper_from_log(l[~lo], a)
    return (t,)


def _rev(v, w, l):
    return w, v, None


P = _Map(_pow_fwd, lambda lv, v, w, l, a: _ln(a) + _xl(a - 1.0, lv), _pow_inv,
         bot=lambda a: (a, 0.0), top=lambda a: (1.0, _ln(a)), v=lambda v, w, l, a: v**a)
RP = _Map(lambda v, w, l, b: _from_l(b * l), lambda lv, v, w, l, b: _ln(b) - (b - 1.0) * l,
          lambda v, w, l, b: _from_l(l / b), bot=lambda b: (1.0, _ln(b)), reads_l=True)
MO = _Map(_mo_fwd, lambda lv, v, w, l, c: _ln(c) - 2.0 * np.log(v + c * w),
          lambda v, w, l, c: _mo_fwd(v, w, l, 1.0 / c),
          bot=lambda c: (1.0, -_ln(c)), top=lambda c: (1.0, _ln(c)))
OP = _Map(lambda v, w, l, d: _logistic(d * (np.log(v) + l)),
          lambda lv, v, w, l, d: (_ln(d) - np.logaddexp(0.0, -d * (lv + l))
                                  - np.logaddexp(0.0, d * (lv + l)) - lv + l),
          lambda v, w, l, d: _logistic((np.log(v) + l) / d), bot=lambda d: (d, 0.0), reads_l=True,
          v=lambda v, w, l, d: sc.expit(d * (np.log(v) + l)))
B = _Map(lambda v, w, l, p, q: (*_beta_sides(w < q / (p + q), p, q, v, w, sc.betainc), None),
         lambda lv, v, w, l, p, q: _xl(p - 1.0, lv) - (q - 1.0) * l - sc.betaln(p, q),
         lambda v, w, l, p, q: (*_beta_sides(v > sc.betainc(p, q, 0.5), p, q, v, w, sc.betaincinv), None),
         bot=lambda p, q: (p, -_ln(p) - sc.betaln(p, q)),
         top=lambda p, q: (q, -_ln(q) - sc.betaln(p, q)))
TE = _Map(_te_fwd, lambda lv, v, w, l, c: _ln(c) - c * v - _ln(-_em1(-c)), _te_inv,
          bot=lambda c: (1.0, _ln(c) - _ln(-_em1(-c))),
          top=lambda c: (1.0, _ln(c) - c - _ln(-_em1(-c))),
          v=lambda v, w, l, c: np.expm1(-c * v) / _em1(-c))
QT = _Map(_qt_fwd, lambda lv, v, w, l, b: np.log1p(b * (w - v)), _qt_inv,
          bot=lambda b: (1.0, _ln1p(b)), top=lambda b: (1.0, _ln1p(-b)),
          v=lambda v, w, l, b: v * (1.0 + b * w))
R = _Map(_rev, lambda lv, v, w, l: 0.0, _rev, bot=None)
L1 = _Map(lambda v, w, l: (l,), lambda lv, v, w, l: l, _from_l, reads_l=True)
OD = _Map(lambda v, w, l: (v / w,), lambda lv, v, w, l: 2.0 * l,
          lambda t: (t / (1.0 + t), 1.0 / (1.0 + t), np.log1p(t)))
Sc = _Map(lambda t, c: (c * t,), lambda lt, t, c: _ln(c), lambda t, c: (t / c,),
          bot=lambda c: (1.0, _ln(c)))
GP = _Map(_gamma_fwd, lambda lt, t, a: _xl(a - 1.0, lt) - t - sc.gammaln(a), _gamma_inv,
          bot=lambda a: (a, -sc.gammaln(a + 1.0)), v=lambda t, a: sc.gammainc(a, t),
          w=lambda t, a: sc.gammaincc(a, t))
W = _Map(lambda t, k, c: _from_l((t / c) ** k),
         lambda lt, t, k, c: _ln(k) - k * _ln(c) + _xl(k - 1.0, lt) - (t / c) ** k,
         lambda v, w, l, k, c: (c * l ** (1.0 / k),), bot=lambda k, c: (k, -k * _ln(c)))
LL = _Map(lambda t, a: _logistic(a * np.log(t)),
          lambda lt, t, a: _ln(a) + _xl(a - 1.0, lt) - 2.0 * np.logaddexp(0.0, a * lt),
          lambda v, w, l, a: (np.exp((np.log(v) + l) / a),), bot=lambda a: (a, 0.0),
          v=lambda t, a: sc.expit(a * np.log(t)))


# --- chains ------------------------------------------------------------------------

def _apply(m, p, s, inverse=False):
    """m's map (or its inverse) on state s, with m's top-end rule where the
    1 - v of s has underflowed."""
    if inverse or m.reads_l:
        s = _full(s)
    out = (m.inv if inverse else m.fwd)(*s, *p)
    if m.top is not None:
        deep = s[1] < _TINY
        if np.count_nonzero(deep):
            q, lam = m.top(*p)
            l = (_full(s)[2] + lam) / q if inverse else q * _full(s)[2] - lam
            out = out[0], np.where(deep, np.exp(-l), out[1]), np.where(deep, l, _full(out)[2])
    return out


def _forward(steps, s):
    """The state the chain (outermost first) makes of the base triple s."""
    for m, p in reversed(steps):
        s = _apply(m, p, s)
    return s


def _forward_v(steps, s):
    """The v of ``_forward(steps, s)``, without the rest of the last state; the
    v of an outermost reflection is the 1 - v of the map inside it."""
    k = 1 if steps[0][0] is R else 0
    m, p = steps[k]
    s = _forward(steps[k + 1:], s)
    return (m.w if k else m.v)(*(_full(s) if m.reads_l else s), *p)


def _log_slope(steps, s, skip=0):
    """ln h' at the base triple s: the sum of ln|phi'| over the chain, less the
    first ``skip`` maps applied."""
    if steps[0][0] is R:
        steps = steps[1:]  # an outermost reflection adds ln 1
    lv, out, todo = np.log(s[0]), 0.0, steps[::-1]
    for i, (m, p) in enumerate(todo):
        s = _full(s)
        if i >= skip:
            out = out + m.lpd(lv, *s, *p)
        if i + 1 == len(todo):
            return out
        nxt = _apply(m, p, s)
        lv_next, under = np.log(nxt[0]), nxt[0] < _TINY
        if np.count_nonzero(under):
            # ln of the new first element past its underflow, from m's
            # behaviour at 0 (R sends it to -ln(1 - v))
            r_mu = m.bot and m.bot(*p)
            lv_next = np.where(under, -s[2] if r_mu is None else r_mu[0] * lv + r_mu[1], lv_next)
        s, lv = nxt, lv_next


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
        _family("gmbetaexpg", "ab", lambda a, b: [P(a), W(1.0, 1.0 / b), OD()]),
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
        _family("weibullextg", "ab", lambda a, b: [W(1.0 / b, _pow(a, -b)), OD()]),
        _family("weibullg", "ab", lambda a, b: [W(a, b), L1()]),
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


_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")


def _at_ends(out, u, omu, lsf, lo, hi):
    """out with a NaN made from a NaN-free triple (an endpoint's 0/0 or
    inf/inf) sent to its value at the nearer end, lo at 0 and hi at 1; a NaN
    in the triple (the base made it) stays NaN."""
    nan = np.isnan(out)
    if not np.count_nonzero(nan):
        return out
    return np.where(nan & ~np.isnan(u + omu + lsf), np.where(u > 0.5, hi, lo), out)


def _h(fam, induced, u, omu, lsf):
    """h on the triple."""
    with np.errstate(**_QUIET):
        v = _forward_v(fam.chain(*induced), (u, omu, lsf))
    return np.minimum(1.0, np.maximum(0.0, _at_ends(v, u, omu, lsf, 0.0, 1.0)))


def _lhp(fam, induced, u, omu, lsf):
    with np.errstate(**_QUIET):
        out = _log_slope(fam.chain(*induced), (u, omu, lsf))
    return np.where(np.isnan(out), -np.inf, out)


def _inverse(fam, induced, p, one_minus_p=None, neg_log_sf=None):
    """``(u, -ln(1 - u))`` at the u with h(u) = p, from the chain run backwards
    on the triple of p; a caller that knows 1 - p or -ln(1 - p) better than
    p does passes them."""
    with np.errstate(**_QUIET):
        s = (p, 1.0 - p if one_minus_p is None else one_minus_p, -np.log1p(-p) if neg_log_sf is None else neg_log_sf)
        bottom, top = s[0] == 0.0, s[2] == np.inf
        for m, prm in fam.chain(*induced):
            s = _apply(m, prm, s, inverse=True)
        u, lsf = s[0], _full(s)[2]
    u = np.clip(np.where(np.isnan(u), np.where(p > 0.5, 1.0, 0.0), u), 0.0, 1.0)
    u = np.where(bottom, 0.0, np.where(top, 1.0, u))
    lsf = np.maximum(np.where(np.isnan(lsf), np.where(p > 0.5, np.inf, 0.0), lsf), 0.0)
    lsf = np.where(bottom, 0.0, np.where(top, np.inf, lsf))
    return u, lsf


def _log_density(fam, induced, b, x, tail):
    """Composite log-density at x from the base tail triple ``tail`` at x."""
    u, omu, lsf = tail
    with np.errstate(**_QUIET):
        steps = fam.chain(*induced)
        if steps[-1][0] is L1:
            # [h'(u)(1 - u)] * hazard(x): both factors stay moderate where
            # ln h'(u) and the base log-density separately blow up to +-lsf
            out = _log_slope(steps, tail, skip=1) + _log_hazard(b, x, lsf)
            # below the median lsf is -log1p(-u), which is 0 only where the
            # base cdf u itself has underflowed to 0 (outside the support, or
            # within ~1e-308 of its edge in probability); the density is 0
            zero = lsf <= 0.0
        else:
            lhp, lg = _log_slope(steps, tail), _on_support(b, b[0].log_pdf, x)
            out = lhp + lg
            # h' is finite on the open interval, so lhp = +inf with a finite
            # base log-density happens only where u (below the median) or the
            # base sf (above it) has underflowed to an exact 0, i.e. within
            # ~1e-308 of an end of the support in probability; the density is
            # taken as 0 there
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
    """h(G(x)); with ``lower_tail`` off the chain's own 1 - h and, with
    ``log_p``, its own ln(1 - h), never 1 - h by subtraction."""
    fam, induced, b = _resolve(family, base, params, location)
    tail = _base_tail(b, x)
    if lower_tail:
        out = _h(fam, induced, *tail)
        if log_p:
            with np.errstate(divide="ignore"):
                out = np.log(out)
        return _scalar(out)
    with np.errstate(**_QUIET):
        _, w, l = _full(_forward(fam.chain(*induced), tail))
    if log_p:
        return _scalar(-np.maximum(_at_ends(l, *tail, 0.0, np.inf), 0.0))
    return _scalar(np.clip(_at_ends(w, *tail, 1.0, 0.0), 0.0, 1.0))


def family_quantile(family, base, p, params, location=True, log_p=False, lower_tail=True):
    fam, induced, b = _resolve(family, base, params, location)
    p = np.asarray(p, dtype=float)
    prob = np.exp(p) if log_p else p
    if np.any((prob < 0) | (prob > 1)):
        raise ValueError("quantile probabilities must lie in [0, 1]")
    if lower_tail:
        u, l = _inverse(fam, induced, prob)
    else:
        # the upper-tail probability q starts the chain as (1 - q, q, -ln q)
        with np.errstate(divide="ignore"):
            u, l = _inverse(fam, induced, 1.0 - prob, prob, -(p if log_p else np.log(prob)))
    # lower half of u through the base quantile, upper half through the base
    # inverse-survival (in -log survival form) so a u that saturates at 1.0
    # in double precision never loses the tail; each only on its own half
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
