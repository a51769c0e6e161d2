"""Primitive maps, and the chains that compose them.

Every base cdf G and every family transform h is a chain of a few primitive
maps, the T-X view (Alzaatreh, Lee & Famoye 2013; Jones 2015), so a composed
cdf h(G(x - mu)) is one chain from y = x - mu.  Chains are written outermost
first: ``[RP(b), P(a)]`` is RP(b) o P(a).

States.  A map of the unit interval carries the triple ``(v, 1 - v,
-ln(1 - v))``; a map of (0, inf) or of the real line carries ``(t,)``.
- unit -> unit: P (power), RP (reflected power), MO (Marshall-Olkin), OP
  (odds power), B (beta cdf), TE (truncated exponential), QT (quadratic
  transmutation), R (reflection);
- unit -> (0, inf): L1 = -ln(1 - v), OD = v/(1 - v);
- (0, inf) -> unit: E = 1 - e^-t (the inverse of L1), ODI = t/(1 + t) (the
  inverse of OD), and the cdfs GP (gamma), LL (log-logistic) and Fr
  (Frechet); real -> unit: N (normal);
- (0, inf) -> (0, inf): Sc (scale), Pw (power), X = e^t - 1,
  Lp = ln(1 + t^a), Q = a t + b t^2/2 (the linear failure rate's hazard);
- to the real line: LN = ln t, BSL = sqrt(t) - 1/sqrt(t) (the
  Birnbaum-Saunders link), Af = (z - a)/b.

The chain contract.  Each primitive gives its forward map, ln|phi'| at its
input state, and its inverse on the same state.  Every element of a state
comes from the side that holds its precision: below 1/2 from v, from 1 - v or
-ln(1 - v) above it (``_l``, ``_lnv``), and a special function runs once per
element, on the side picked for that element.  Past the underflow of 1 - v a
map that does not carry -ln(1 - v) exactly applies its behaviour at 1,
``1 - phi(v) ~ e^lam (1 - v)^q`` (``top``); ``_log_slope`` follows ln v past
the underflow of v by each map's behaviour at 0, ``phi(v) ~ e^mu v^r``
(``bot``; None where there is no such law).  A -ln(1 - v) that only repeats
v and 1 - v is formed when a map reads it (``_full``), and ``_log_slope``
forms a state's ln v and -ln(1 - v) only where the slope of the map it
enters reads them (``slope_reads``), ln v also where a map further out
continues it past its underflow.

One chain from y.  ``_join`` puts a family's chain outside a base's and drops
an adjacent L1 o E, the identity, so a family that starts with -ln(1 - u)
reads a hazard-form base's cumulative hazard H itself and the two terms +-H
of ln h' and ln g never form.  Where L1 sits right outside a map with its own
log-hazard (``lhz``: GP, LL and N), ``_log_slope`` takes the pair as that.
``_cdf_log_density`` takes the cdf and the log-density from one walk
(``_log_slope`` with ``with_v``), bit for bit as ``_cdf`` and
``_log_density`` give them.

The model boundary.  A ``Spec`` is one family or base: its name, its
parameter names, its chain, their open intervals (``domains``) and, for a
base, its start rule.  A ``Model`` is a composition's specs, outermost first,
and the location flag; it alone knows theta's layout (each spec's parameters,
then mu) and each coordinate's open interval (``domains``).  ``resolve``
checks a theta's count and every domain but mu's and returns the joined chain
and mu; ``steps`` joins it unchecked, for a stack masked on ``domains``.

The inputs and the outputs.  Inputs become states here, once: ``Model.at``
takes the points x to y = x - mu, the state ``(y,)``; ``_from_p`` checks a
probability and builds its triple in any of R's four tails (``lower.tail``,
``log.p``), which ``_to_p`` reads back: v, 1 - v, ln v and -ln(1 - v).

The support and the non-finite rule.  The runners from y (``_cdf``,
``_state``, ``_log_density``, ``_cdf_log_density``) and back (``_quantile``)
run the maps inside numpy's silenced floating-point warnings.  y <= 0 and a
NaN y are outside the support: the triple (0, 1, 0) and log-density -inf;
y = +inf gives (1, 0, +inf) and log-density -inf.  A NaN a map makes inside
the support stays NaN: the spacing objective reads it as an infeasible
point, and the log-density reads it (like a +inf, which only the underflow
of an intermediate state makes) as a zero density.  A NaN probability gives
a NaN quantile, as R's ``q*`` functions and scipy's ``ppf`` do.  A parameter
is a float or a (B, 1) column, one entry per row of a (B, n) state
(``mps_fit._spacing_rows``); the maps apply numpy's functions to either, so
neither has a route of its own.

Element by element.  Every map, and so every runner, gives each element of
its input the value it would give that element alone: no loop stops, and no
branch is taken, on a test over all the elements that changes an element's
value (a test such as ``np.count_nonzero(deep)`` only skips work whose
result ``np.where`` would discard).  The runners rely on it: an input of
``_SPLIT`` elements or more is cut along its last axis into one part per core
the process may run on, the parts run on threads (scipy's special functions
release the GIL) and join to the uncut result bit for bit.  A map that
iterates stops each element on its own criterion (``special_functions``).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special as sc

from .special_functions import _gamma_log_pdf, _log_q_cf, inv_reg_inc_gamma_upper_from_log

_TINY = 1e-300  # below this a probability has lost its precision to underflow
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LN_NORMAL = math.log(np.finfo(float).tiny)  # ln of the smallest normal double
_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")
_POS, _REAL = (0.0, math.inf), (-math.inf, math.inf)  # the open domains of a parameter or of mu


def _scalar(out):
    """0-d results as Python floats, arrays unchanged."""
    return out if out.ndim else float(out)


# --- states ----------------------------------------------------------------------

def _l(v, w):
    """-ln w for w = 1 - v, taken from v below 1/2."""
    return -np.where(v < 0.5, np.log1p(-v), np.log(w))


def _lnv(v, w):
    """ln v, taken from w = 1 - v from 1/2 up."""
    return np.where(v < 0.5, np.log(v), np.log1p(-w))


def _ln_first(s):
    """ln of the state's first element, on the unit interval from 1 - v
    from 1/2 up."""
    return _lnv(s[0], s[1]) if len(s) == 3 else np.log(s[0])


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


def _from_p(p, requires="quantile probabilities must lie", log_p=False, lower_tail=True):
    """The triple of a probability p, checked to lie in [0, 1], in the tail
    its flags name: p, or ln p with ``log_p``, and an upper-tail q, as
    ``(1 - q, q, -ln q)``, with ``lower_tail`` off.  The caller silences ln 0."""
    p = np.asarray(p, dtype=float)
    # ln p is checked before e^p, which overflows above ln p = 709; a NaN passes
    if np.any(p > 0.0 if log_p else (p < 0.0) | (p > 1.0)):
        raise ValueError(f"{requires} in [0, 1]")
    prob = np.exp(p) if log_p else p  # from a 0-d p a numpy scalar: as a 0-d array P's v**a rounds otherwise
    if log_p and not lower_tail:
        return _from_l(-p)
    if log_p:  # 1 - e^p as -expm1(p), and -ln(1 - e^p) by Maechler's (2012) log1mexp rule
        w = -np.expm1(p)
        return prob, w, -np.where(p > -np.log(2.0), np.log(w), np.log1p(-prob))
    return (prob, 1.0 - prob, -np.log1p(-prob)) if lower_tail else (1.0 - prob, prob, -np.log(prob))


def _to_p(s, log_p=False, lower_tail=True):
    """The probability of the triple s in the tail ``_from_p`` takes: v, 1 - v,
    ln v (from 1 - v above 1/2) or -l; 1 - v is never formed by subtraction."""
    v, w, l = s
    if not lower_tail:
        return -l if log_p else w
    with np.errstate(divide="ignore"):  # ln 0 at v = 0
        return _lnv(v, w) if log_p else v


def _beta_sides(right, p, q, v, w, fn):
    """``(i, 1 - i)`` from one fn (betainc or betaincinv) per element: i(p, q)
    at v, or i(q, p) at w = 1 - v where ``right``, the side with the precision."""
    i = fn(np.where(right, q, p), np.where(right, p, q), np.where(right, w, v))
    j = 1.0 - i
    return np.where(right, j, i), np.where(right, i, j)


# --- primitive maps ----------------------------------------------------------------

class _Map:
    """A primitive map: ``fwd(*state, *p)``, ``lpd(ln v, *state, *p)`` (ln|phi'|
    given ln of the state's first element), ``inv(*state, *p)``, ``bot`` and
    ``top`` (None: the map carries -ln(1 - v) exactly); ``reads_l`` marks the
    forward maps that read -ln(1 - v), and ``slope_reads`` what ``lpd`` and
    ``lhz`` read of their input state: "v" its ln v, "l" its -ln(1 - v) (an
    undeclared one may come stale or None); ``v`` and ``w`` give v or 1 - v
    alone, for a cdf's outermost map; ``lhz(ln v, l, *state, *p)``, given the
    map's own -ln(1 - phi), is ln phi'/(1 - phi)."""

    def __init__(self, fwd, lpd, inv, bot=lambda *p: (1.0, 0.0), top=None, reads_l=False, slope_reads="",
                 v=None, w=None, lhz=None):
        self.fwd, self.lpd, self.inv, self.bot, self.top, self.reads_l = fwd, lpd, inv, bot, top, reads_l
        self.slope_reads = slope_reads
        self.v, self.w, self.lhz = v or (lambda *a: fwd(*a)[0]), w or (lambda *a: fwd(*a)[1]), lhz

    def __call__(self, *p):
        return self, p


def _pow_fwd(v, w, l, a):
    return v**a, -np.expm1(a * _lnv(v, w)), None


def _pow_inv(v, w, l, a):
    # at a = 1, the identity, the state itself: 1 - u through ln v would round
    one = a == 1.0
    u, omu = v ** (1.0 / a), np.where(one, w, -np.expm1(_lnv(v, w) / a))
    return u, omu, np.where(one, l, _l(u, omu))


def _mo_fwd(v, w, l, c):
    cw = c * w
    den = v + cw
    return v / den, cw / den, None


def _te_fwd(v, w, l, c):
    em = np.expm1(-c)
    return np.expm1(-c * v) / em, np.exp(-c * v) * np.expm1(-c * w) / em, None


def _te_inv(v, w, l, c):
    # u = -ln(1 + v (e^-c - 1))/c, or where that argument nears 0 its form
    # -ln(1 - v + v e^-c)/c from ln(1 - v) and ln v
    x, lnv = v * np.expm1(-c), _lnv(v, w)
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


def _beta_fwd(v, w, l, p, q):
    i, j = _beta_sides(w < q / (p + q), p, q, v, w, sc.betainc)
    deep = j < np.finfo(float).tiny
    if not np.count_nonzero(deep):
        return i, j, None
    # past the underflow of 1 - B(v) its ln from the behaviour at 1
    return i, j, np.where(deep, q * _l(v, w) + np.log(q) + sc.betaln(p, q), _l(i, j))


def _beta_inv(v, w, l, p, q):
    # where the result's small side is below 1e-20, scipy's inverse may fail
    # (NaN) or lose it, while the behaviour at the ends holds to double
    # precision: v ~ x^p / (p B(p, q)) at 0, and its mirror at 1.  An x below
    # the normal doubles reads as the smallest of them, as in scipy's own
    x, y = _beta_sides(v > sc.betainc(p, q, 0.5), p, q, v, w, sc.betaincinv)
    lb = sc.betaln(p, q)
    ln_x, l_out = (_lnv(v, w) + np.log(p) + lb) / p, (l - np.log(q) - lb) / q
    lo, hi = ln_x < -46.0, l_out > 46.0
    if not np.count_nonzero(lo | hi):
        return x, y, None
    ln_x = np.maximum(ln_x, _LN_NORMAL)
    x, y = np.where(lo, np.exp(ln_x), np.where(hi, 1.0, x)), np.where(hi, np.exp(-l_out), np.where(lo, 1.0, y))
    return x, y, np.where(hi, l_out, _l(x, y))


def _odds_inv(t):
    # t/(1 + t) as 1 - e^-ln(1 + t), exact also at t = +inf and a subnormal t
    l = np.log1p(t)
    return -np.expm1(-l), 1.0 / (1.0 + t), l


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
    # past the underflow of Q, ln Q = ln|phi'| + ln of its continued fraction
    td = np.where(up & (i < _TINY), t, np.inf)
    return v, w, np.where(td < np.inf, -_gamma_log_pdf(np.log(td), td, a) - _log_q_cf(td, a), _l(v, w))


def _two_sided(v, l, lower, upper):
    """``(lower(v),)`` below v = 1/2 and ``(upper(l),)`` from 1/2 up, each
    special function only on its own side."""
    v, l = np.asarray(v), np.asarray(l)
    lo = v < 0.5
    t = np.empty(v.shape)
    t[lo], t[~lo] = lower(v[lo]), upper(l[~lo])
    return (t,)


def _gamma_lhz(lt, l, t, a):
    # where -ln Q > 30, whose terms in ln|phi'| + l cancel, minus ln of Q's
    # continued fraction alone
    far = l > 30.0
    out = _gamma_log_pdf(lt, t, a) + l
    if np.count_nonzero(far):
        out = np.where(far, -_log_q_cf(np.where(far, t, np.inf), a), out)
    return out


def _normal_fwd(z):
    v, w = sc.ndtr(z), sc.ndtr(-z)
    if not np.count_nonzero(w < _TINY):
        return v, w, None
    return v, w, np.where(w < _TINY, -sc.log_ndtr(-z), _l(v, w))


def _normal_lpd(lz, z):
    return -0.5 * z * z - _LOG_SQRT_2PI


def _normal_lhz(lz, l, z):
    # past z = 30 the Mills ratio Phi(-z) = phi(z)/z (1 - z^-2 + ...) to z^-14, the next term below 5e-18
    far = z > 30.0
    out = _normal_lpd(lz, z) + l
    if np.count_nonzero(far):
        zz = np.where(far, z, np.inf) ** -2
        series = zz * np.polyval([-135135.0, 10395.0, -945.0, 105.0, -15.0, 3.0, -1.0], zz)
        out = np.where(far, np.log(np.where(far, z, 1.0)) - np.log1p(series), out)
    return out


def _frechet_fwd(t, k):
    # exp(-t^-k); past the underflow of its 1 - v, -ln(1 - v) is k ln t
    r = t ** -k
    v, w = np.exp(-r), -np.expm1(-r)
    if not np.count_nonzero(w < _TINY):
        return v, w, None
    return v, w, np.where(w < _TINY, k * np.log(t), _l(v, w))


def _lp_fwd(t, a):
    # ln(1 + t^a), and a ln t where t^a overflows
    ta = t**a
    out = np.log1p(ta)
    if np.count_nonzero(ta == np.inf):
        out = np.where(ta == np.inf, a * np.log(t), out)
    return (out,)


def _bsl_inv(z):
    # the positive root r of r^2 - z r - 1 = 0, without cancellation
    h = np.hypot(z, 2.0)
    r = np.where(z > 0.0, (z + h) / 2.0, 2.0 / (h - z))
    return (r * r,)


def _rev(v, w, l):
    return w, v, None


P = _Map(_pow_fwd, lambda lv, v, w, l, a: np.log(a) + _xl(a - 1.0, lv), _pow_inv,
         bot=lambda a: (a, 0.0), top=lambda a: (1.0, np.log(a)), slope_reads="v", v=lambda v, w, l, a: v**a)
RP = _Map(lambda v, w, l, b: _from_l(b * l), lambda lv, v, w, l, b: np.log(b) - (b - 1.0) * l,
          lambda v, w, l, b: _from_l(l / b), bot=lambda b: (1.0, np.log(b)), reads_l=True, slope_reads="l")
MO = _Map(_mo_fwd, lambda lv, v, w, l, c: np.log(c) - 2.0 * np.log(v + c * w),
          lambda v, w, l, c: _mo_fwd(v, w, l, 1.0 / c),
          bot=lambda c: (1.0, -np.log(c)), top=lambda c: (1.0, np.log(c)))
OP = _Map(lambda v, w, l, d: _logistic(d * (np.log(v) + l)),
          lambda lv, v, w, l, d: (np.log(d) - np.logaddexp(0.0, -d * (lv + l))
                                  - np.logaddexp(0.0, d * (lv + l)) - lv + l),
          lambda v, w, l, d: _logistic((np.log(v) + l) / d), bot=lambda d: (d, 0.0), reads_l=True,
          slope_reads="vl")
B = _Map(_beta_fwd,
         lambda lv, v, w, l, p, q: _xl(p - 1.0, lv) - (q - 1.0) * l - sc.betaln(p, q),
         _beta_inv,
         bot=lambda p, q: (p, -np.log(p) - sc.betaln(p, q)),
         top=lambda p, q: (q, -np.log(q) - sc.betaln(p, q)), slope_reads="vl")
TE = _Map(_te_fwd, lambda lv, v, w, l, c: np.log(c) - c * v - np.log(-np.expm1(-c)), _te_inv,
          bot=lambda c: (1.0, np.log(c) - np.log(-np.expm1(-c))),
          top=lambda c: (1.0, np.log(c) - c - np.log(-np.expm1(-c))),
          v=lambda v, w, l, c: np.expm1(-c * v) / np.expm1(-c))
QT = _Map(_qt_fwd, lambda lv, v, w, l, b: np.log1p(b * (w - v)), _qt_inv,
          bot=lambda b: (1.0, np.log1p(b)), top=lambda b: (1.0, np.log1p(-b)))
R = _Map(_rev, lambda lv, v, w, l: 0.0, _rev, bot=None)
L1 = _Map(lambda v, w, l: (l,), lambda lv, v, w, l: l, _from_l, reads_l=True, slope_reads="l")
OD = _Map(lambda v, w, l: (v / w,), lambda lv, v, w, l: 2.0 * l, _odds_inv, slope_reads="l")
E = _Map(lambda t: _from_l(t), lambda lt, t: -t, lambda v, w, l: (l,), v=lambda t: -np.expm1(-t))
ODI = _Map(_odds_inv, lambda lt, t: -2.0 * np.log1p(t), OD.fwd)
Sc = _Map(lambda t, c: (c * t,), lambda lt, t, c: np.log(c), lambda t, c: (t / c,),
          bot=lambda c: (1.0, np.log(c)))
Pw = _Map(lambda t, a: (t**a,), lambda lt, t, a: np.log(a) + _xl(a - 1.0, lt), lambda t, a: (t ** (1.0 / a),),
          bot=lambda a: (a, 0.0), slope_reads="v")
X = _Map(lambda t: (np.expm1(t),), lambda lt, t: t, lambda t: (np.log1p(t),))
Lp = _Map(_lp_fwd, lambda lt, t, a: np.log(a) + _xl(a - 1.0, lt) - np.logaddexp(0.0, a * lt),
          lambda t, a: (np.exp((t + np.log(-np.expm1(-t))) / a),), bot=lambda a: (a, 0.0), slope_reads="v")
Q = _Map(lambda t, a, b: (t * (a + b * t / 2.0),), lambda lt, t, a, b: np.log(a + b * t),
         lambda t, a, b: (2.0 * t / (a + np.sqrt(a * a + 2.0 * b * t)),), bot=lambda a, b: (1.0, np.log(a)))
GP = _Map(_gamma_fwd, _gamma_log_pdf,
          lambda v, w, l, a: _two_sided(v, l, lambda x: sc.gammaincinv(a, x),
                                        lambda x: inv_reg_inc_gamma_upper_from_log(x, a)),
          bot=lambda a: (a, -sc.gammaln(a + 1.0)), v=lambda t, a: sc.gammainc(a, t),
          w=lambda t, a: sc.gammaincc(a, t), lhz=_gamma_lhz, slope_reads="v")
LL = _Map(lambda t, a: _logistic(a * np.log(t)),
          lambda lt, t, a: np.log(a) + _xl(a - 1.0, lt) - 2.0 * np.logaddexp(0.0, a * lt),
          lambda v, w, l, a: (np.exp((np.log(v) + l) / a),), bot=lambda a: (a, 0.0),
          v=lambda t, a: sc.expit(a * np.log(t)),
          lhz=lambda lt, l, t, a: np.log(a) - lt - np.logaddexp(0.0, -a * lt), slope_reads="v")
# Fr's inverse (-ln v)^(-1/k) is e^(l/k) once -ln v = -ln(1 - e^-l) is e^-l
Fr = _Map(_frechet_fwd, lambda lt, t, k: np.log(k) - _xl(k + 1.0, lt) - t**-k,
          lambda v, w, l, k: (np.where(l > 36.0, np.exp(l / k), (-_lnv(v, w)) ** (-1.0 / k)),), bot=None,
          slope_reads="v")
N = _Map(_normal_fwd, _normal_lpd, lambda v, w, l: _two_sided(v, l, sc.ndtri, lambda x: -sc.ndtri_exp(-x)),
         bot=None, v=sc.ndtr, lhz=_normal_lhz)
LN = _Map(lambda t: (np.log(t),), lambda lt, t: -lt, lambda z: (np.exp(z),), bot=None, slope_reads="v")
Af = _Map(lambda z, a, b: ((z - a) / b,), lambda lz, z, a, b: -np.log(b), lambda z, a, b: (a + b * z,), bot=None)
BSL = _Map(lambda t: (np.sqrt(t) - 1.0 / np.sqrt(t),),
           lambda lt, t: np.log1p(t) - math.log(2.0) - 1.5 * lt, _bsl_inv, bot=None, slope_reads="v")


# --- chains ------------------------------------------------------------------------

def _join(outer, inner):
    """The chain outer o inner; an adjacent L1 o E, the identity, is dropped."""
    if outer and inner and outer[-1][0] is L1 and inner[0][0] is E:
        return outer[:-1] + inner[1:]
    return outer + inner


class _DomainError(ValueError):
    """A coordinate of theta outside its open interval."""


@dataclass(frozen=True)
class Spec:
    """One family or base: ``chain(*params)`` gives its maps, outermost first;
    ``start(y)``, a base's only, a moment-type start from y = x - mu."""

    name: str
    param_names: tuple[str, ...]
    chain: Callable
    domains: tuple[tuple[float, float], ...] = None  # one open interval per parameter, (0, inf) by default
    start: Callable = None

    def __post_init__(self):
        object.__setattr__(self, "param_names", tuple(self.param_names))
        object.__setattr__(self, "domains", self.domains or (_POS,) * self.n_params)

    @property
    def n_params(self) -> int:
        return len(self.param_names)


class Model:
    """A composition: its ``Spec``s, outermost first, and whether mu comes
    last.  Theta is each spec's parameters in turn, then mu; ``domains`` holds
    one open interval per coordinate, mu's the real line."""

    def __init__(self, specs, location=True):
        self.specs, self.location = specs, location
        self.domains = tuple(d for s in specs for d in s.domains) + ((_REAL,) if location else ())
        self.k = len(self.domains)
        self._names = tuple(f"{s.name} parameter {nm}" for s in specs for nm in s.param_names)

    def steps(self, theta):
        """The joined chain at theta, floats or (B, 1) columns, unchecked; a
        trailing mu is not read."""
        steps, i = [], 0
        for s in self.specs:
            n = len(s.domains)
            steps, i = _join(steps, s.chain(*theta[i : i + n])), i + n
        return steps

    def resolve(self, params):
        """``(steps, mu)`` from a full theta, with its count and every domain
        but mu's checked; mu is 0 with the location off."""
        theta = tuple(float(p) for p in params)
        if len(theta) != self.k:
            raise ValueError(f"{' x '.join(s.name for s in self.specs)} expects {self.k} parameters"
                             f"{' (mu last)' if self.location else ''}, got {len(theta)}")
        for v, (lo, hi), name in zip(theta, self.domains, self._names):
            if not lo < v < hi:
                raise _DomainError(f"{name}={v} outside ({lo}, {hi})")
        return self.steps(theta), theta[-1] if self.location else 0.0

    def at(self, params, x):
        """``(steps, y)``: theta checked as by ``resolve``, and y = x - mu."""
        steps, mu = self.resolve(params)
        return steps, np.asarray(x, dtype=float) - mu


def _apply(m, p, s, inverse=False):
    """m's map (or its inverse) on state s, with m's top-end rule where the
    1 - v of s has underflowed."""
    if inverse or m.reads_l:
        s = _full(s)
    out = (m.inv if inverse else m.fwd)(*s, *p)
    if m.top is not None:
        # a NaN the map made (a special function out of its range) stays
        deep = s[1] < _TINY
        if np.count_nonzero(deep):
            deep = deep & ~np.isnan(out[1])
            q, lam = m.top(*p)
            l = (_full(s)[2] + lam) / q if inverse else q * _full(s)[2] - lam
            out = out[0], np.where(deep, np.exp(-l), out[1]), np.where(deep, l, _full(out)[2])
    return out


def _forward(steps, s):
    """The state the chain (outermost first) makes of the state s."""
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


def _log_slope(steps, s, with_v=False):
    """ln of the chain's slope at the state s: the sum of ln|phi'| over the
    chain, with L1 and the map right inside it taken as that map's ``lhz``;
    with ``with_v``, the pair of it and the v ``_forward_v`` reads, from the
    same walk.  A state's ln v and -ln(1 - v) are formed only where the map
    it enters reads them (``slope_reads``), and ln v also where a map further
    out continues it past its underflow."""
    reflected = steps[0][0] is R  # an outermost reflection adds ln 1
    todo = steps[:0:-1] if reflected else steps[::-1]
    # whether the input state of each map (innermost first) needs its ln v, and its -ln(1 - v)
    need_v, need_l, later = [], [], False
    for m, _ in reversed(todo):
        need_l.insert(0, "l" in m.slope_reads or later and m is R)
        later = "v" in m.slope_reads or later and m.bot is not None
        need_v.insert(0, later)
    lv, out, paired = _ln_first(s) if later else None, 0.0, False
    for i, (m, p) in enumerate(todo):
        if need_l[i]:
            s = _full(s)
        last = i + 1 == len(todo)
        nxt = None if last else _apply(m, p, s)
        if paired:
            paired = False  # L1's term came with the map inside it
        elif m.lhz is not None and not last and todo[i + 1][0] is L1:
            nxt = _full(nxt)
            out, paired = out + m.lhz(lv, nxt[2], *s, *p), True
        else:
            out = out + m.lpd(lv, *s, *p)
        if last:
            return (out, (m.w if reflected else m.v)(*(_full(s) if m.reads_l else s), *p)) if with_v else out
        if need_v[i + 1]:
            lv_next, under = _ln_first(nxt), nxt[0] < _TINY
            if np.count_nonzero(under):
                # ln of the new first element past its underflow, from m's
                # behaviour at 0 (R sends it to -ln(1 - v))
                if m is R:
                    lv_next = np.where(under, -s[2], lv_next)
                elif m.bot is not None:
                    r, mu = m.bot(*p)
                    lv_next = np.where(under, r * lv + mu, lv_next)
            lv = lv_next
        s = nxt


# --- runners from y = x - mu ------------------------------------------------------------

_SPLIT = 2**15  # a runner cuts an input of this many elements or more across the cores
_pool = None  # the ThreadPoolExecutor that runs all parts but the first, made on first use
_pool_lock = threading.Lock()


def _drop_pool():
    # a forked child has none of its parent's threads, and may have its lock held
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # only a large call needs it

            _pool = ThreadPoolExecutor(os.cpu_count(), thread_name_prefix="genfit")
        return _pool


def _in_parts(run, steps, x):
    """``run(steps, x)`` with x (an array, or _quantile's triple) cut along
    its last axis into one part per core the process may run on, each run
    uncut (``part=True``): the first on the calling thread, the rest on the
    pool.  Every map works element by element, so the parts join to the
    uncut result bit for bit."""
    triple = isinstance(x, tuple)
    if triple:
        x = tuple(np.broadcast_arrays(*x))
    n = (x[0] if triple else x).shape[-1]
    k = min(_cores(), n)
    if k < 2:
        return run(steps, x, True)
    cuts = [n * i // k for i in range(k + 1)]
    parts = [tuple(a[..., i:j] for a in x) if triple else x[..., i:j] for i, j in zip(cuts, cuts[1:])]
    pool = _executor()
    rest = [pool.submit(run, steps, part, True) for part in parts[1:]]
    try:
        first = run(steps, parts[0], True)
    finally:
        rest = [f.result() for f in rest]  # every part has ended when the call returns or raises
    if isinstance(first, tuple):
        return tuple(np.concatenate(o, axis=-1) for o in zip(first, *rest))
    return np.concatenate([first] + rest, axis=-1)


def _support(y, vals, outside, top):
    """vals (shaped like y) with ``outside`` where y <= 0 or y is NaN, and
    ``top`` where y = +inf."""
    inside = (y > 0.0) & (y < np.inf)
    if inside.all():
        return vals
    at_top = y == np.inf
    return tuple(np.where(inside, v, np.where(at_top, t, o)) for v, o, t in zip(vals, outside, top))


def _cdf(steps, y, part=False):
    """The chain's v at y."""
    if y.size >= _SPLIT and not part:
        return _in_parts(_cdf, steps, y)
    with np.errstate(**_QUIET):
        v = _forward_v(steps, (y,))
    (v,) = _support(y, (v,), (0.0,), (1.0,))
    return np.minimum(1.0, np.maximum(0.0, v))


def _state(steps, y, part=False):
    """The chain's triple ``(v, 1 - v, -ln(1 - v))`` at y."""
    if y.size >= _SPLIT and not part:
        return _in_parts(_state, steps, y)
    with np.errstate(**_QUIET):
        v, w, l = _full(_forward(steps, (y,)))
    v, w, l = _support(y, (v, w, l), (0.0, 1.0, 0.0), (1.0, 0.0, np.inf))
    return np.minimum(1.0, np.maximum(0.0, v)), np.minimum(1.0, np.maximum(0.0, w)), np.maximum(l, 0.0)


def _log_density(steps, y, part=False, with_v=False):
    """ln of the chain's slope at y, the log-density of the distribution it is
    the cdf of; -inf outside the support, where a map made NaN, and where an
    intermediate state's underflow made +inf.  With ``with_v``, the pair
    ``(_cdf(steps, y), that)`` from the same walk."""
    if y.size >= _SPLIT and not part:
        return _in_parts(_cdf_log_density if with_v else _log_density, steps, y)
    with np.errstate(**_QUIET):
        walk = _log_slope(steps, (y,), with_v)
    # the ln slope first, then the v with_v adds: _support zips to the shorter
    out, *v = _support(y, walk if with_v else (walk,), (-np.inf, 0.0), (-np.inf, 1.0))
    out = np.where(np.isnan(out) | (out == np.inf), -np.inf, out)
    return (np.minimum(1.0, np.maximum(0.0, v[0])), out) if with_v else out


def _cdf_log_density(steps, y, part=False):
    """``(_cdf(steps, y), _log_density(steps, y))`` from one walk of the chain."""
    return _log_density(steps, y, part, with_v=True)


def _quantile(steps, p, part=False):
    """The y >= 0 at which the chain reaches the triple p, from the chain run
    backwards: 0 where v = 0, +inf where -ln(1 - v) = +inf, NaN where p is
    NaN, and where the inverse made NaN the end on v's side of 1/2."""
    if p[0].size >= _SPLIT and not part:
        return _in_parts(_quantile, steps, p)
    s = p
    with np.errstate(**_QUIET):
        for m, prm in steps:
            s = _apply(m, prm, s, inverse=True)
        y = np.maximum(np.where(np.isnan(s[0]), np.where(p[0] > 0.5, np.inf, 0.0), s[0]), 0.0)
    return np.where(p[0] == 0.0, 0.0, np.where(p[2] < np.inf, y, p[2]))
