"""Left-tail accuracy against an independent 50-digit oracle (mpmath).

The oracle evaluates the transforms and bases from their closed-form
definitions in multiple precision at the very doubles the library receives,
so any difference is the library's own rounding.  The cases are the left
tails where 1 - u and -ln(1 - u) must not be rebuilt from u's complement:
the near-mu segment of composite densities with a singular left end, the
transforms, their derivatives and their inverses at u far below eps, and the
survival side of the F, chi-square, gamma and Frechet bases.
"""

import math

import numpy as np
import pytest
import scipy.special as sc

from genfit.base_distributions import (
    base_cdf,
    base_isf_log,
    base_log_hazard,
    base_log_pdf,
    base_log_sf,
    base_quantile,
    base_sf,
)
from genfit.family_transforms import (
    _h_inverse,
    family_cdf,
    family_pdf,
    family_quantile,
    h_forward,
    h_inverse,
    log_h_prime,
)

mp = pytest.importorskip("mpmath")


@pytest.fixture(autouse=True)
def _fifty_digits():
    with mp.workdps(50):
        yield


# --- oracle bases: (cdf, pdf) at y > 0 ---------------------------------------

def _bs(y, alpha, beta):
    r = mp.sqrt(y / beta)
    z = (r - 1 / r) / alpha
    return mp.ncdf(z), (r + 1 / r) / (2 * alpha * y) * mp.npdf(z)


def _lognormal(y, alpha, beta):
    z = (mp.log(y) - alpha) / beta
    return mp.ncdf(z), mp.npdf(z) / (beta * y)


def _burrxii(y, alpha, beta):
    yb = y**beta
    return -mp.expm1(-alpha * mp.log1p(yb)), alpha * beta * y ** (beta - 1) * (1 + yb) ** (-alpha - 1)


def _f(y, alpha, beta):
    ha, hb = alpha / 2, beta / 2
    cdf = mp.betainc(ha, hb, 0, alpha * y / (alpha * y + beta), regularized=True)
    pdf = (alpha / beta) ** ha * y ** (ha - 1) * (1 + alpha * y / beta) ** (-ha - hb) / mp.beta(ha, hb)
    return cdf, pdf


def _chisq_cdf(y, alpha):
    return mp.gammainc(alpha / 2, 0, y / 2, regularized=True)


def _gamma_cdf(y, alpha, beta):
    return mp.gammainc(alpha, 0, y / beta, regularized=True)


def _frechet_cdf(y, alpha, beta):
    return mp.exp(-((y / beta) ** -alpha))


ORACLE_BASES = {"birnbaum-saunders": _bs, "log-normal": _lognormal, "burrxii": _burrxii, "f": _f}


# --- oracle transforms: h(u) and h'(u) ---------------------------------------

# 1 - u and 1 - (1 - u^a)^b go through log1p/expm1: at u far below the
# working precision a plain subtraction would round to 1 or 0 even here

def _expkumg_h(u, a, b, d):
    return (-mp.expm1(b * mp.log1p(-(u**a)))) ** d


def _expkumg_hp(u, a, b, d):
    l1 = mp.log1p(-(u**a))
    return a * b * d * u ** (a - 1) * mp.exp((b - 1) * l1) * (-mp.expm1(b * l1)) ** (d - 1)


def _loggammag1_h(u, a, b):
    return mp.gammainc(a, 0, -b * mp.log1p(-u), regularized=True)


def _loggammag1_hp(u, a, b):
    t = -mp.log1p(-u)
    return b**a / mp.gamma(a) * t ** (a - 1) * mp.exp(-(b - 1) * t)


def _mokumg_hp(u, a, b, d):
    l1 = mp.log1p(-(u**a))
    v = mp.exp(b * l1)
    return a * b * d * u ** (a - 1) * mp.exp((b - 1) * l1) / (1 - (1 - d) * v) ** 2


def _gammag1_hp(u, a):
    return (-mp.log(u)) ** (a - 1) / mp.gamma(a)


def _loggammag2_hp(u, a, b):
    return b**a * (-mp.log(u)) ** (a - 1) * u ** (b - 1) / mp.gamma(a)


def _expgg_h(u, a, b):
    return (-mp.expm1(a * mp.log1p(-u))) ** b


def _betaexpg_h(u, a, b, d):
    # 1 - I_y(a, b) at y = (1 - u)^d, as I_{1-y}(b, a)
    return mp.betainc(b, a, 0, -mp.expm1(d * mp.log1p(-u)), regularized=True)


def _gexppg_h(u, a, b):
    return (mp.exp(-a * (1 - u)) - mp.exp(-a)) / (1 - mp.exp(-a) - b * (1 - mp.exp(-a * (1 - u))))


ORACLE_H = {"expkumg": (_expkumg_h, _expkumg_hp), "loggammag1": (_loggammag1_h, _loggammag1_hp)}


# Draws of the criterion 6 sweep (seed 600) whose near-mu segment lost mass
# to left-tail cancellation: induced parameters, base parameters, mu.
NEAR_MU_DRAWS = [
    (
        "expkumg",
        "birnbaum-saunders",
        (0.5032422911217169, 2.8620006339074346, 0.6728277464197323,
         2.0017728451993495, 0.7696478123459217, 1.4269714002659413),
    ),
    (
        "expkumg",
        "log-normal",
        (0.5190191471775467, 2.05518803829238, 0.6965094292365982,
         0.883036865082122, 1.5406850327688226, 0.8693422868919594),
    ),
    (
        "expkumg",
        "burrxii",
        (0.5829542189343152, 1.6391360672783213, 0.6218772826574501,
         1.7531281888119876, 1.314521523921712, 1.94362493664681),
    ),
    (
        "loggammag1",
        "f",
        (0.5759295995662215, 1.4378421387267375, 0.7196386718610194,
         0.9426657719947771, 0.14168213343177793),
    ),
]


def _assert_rel(got, want, rel, y):
    """got within rel of the oracle where the oracle is a normal double;
    past double-precision underflow only below it too."""
    tiny = np.finfo(float).tiny
    if want < tiny:
        assert got < tiny, (y, got, want)
    else:
        assert got == pytest.approx(float(want), rel=rel, abs=0.0), (y, got, want)


@pytest.mark.parametrize("family,base,params", NEAR_MU_DRAWS, ids=[f"{f}-{b}" for f, b, _ in NEAR_MU_DRAWS])
def test_near_mu_segment_matches_oracle(family, base, params):
    shape = params[:-1]
    n_induced = {"expkumg": 3, "loggammag1": 2}[family]
    induced = [mp.mpf(v) for v in shape[:n_induced]]
    base_params = [mp.mpf(v) for v in shape[n_induced:]]
    h, hp = ORACLE_H[family]
    # the segment criterion 6 integrates: from 16 eps above mu to the
    # 0.25-quantile, in y = x - mu
    c = family_quantile(family, base, 0.25, shape, location=False)
    ys = np.geomspace(16.0 * np.finfo(float).eps * max(abs(params[-1]), 1.0), c, 15)
    pdf = family_pdf(family, base, ys, shape, location=False)
    cdf = family_cdf(family, base, ys, shape, location=False)
    for y, got_pdf, got_cdf in zip(ys, pdf, cdf):
        u, g = ORACLE_BASES[base](mp.mpf(y), *base_params)
        want_cdf = h(u, *induced)
        want_pdf = hp(u, *induced) * g
        _assert_rel(got_cdf, want_cdf, 1e-12, y)
        _assert_rel(got_pdf, want_pdf, 1e-12, y)


@pytest.mark.parametrize(
    "family,induced,u,oracle",
    [
        ("expkumg", (0.3, 2.5, 1.4), 1e-20, _expkumg_hp),
        # u^a underflows: ln(1 - (1 - u^a)^b) must not become -inf
        ("expkumg", (3.0, 2.0, 0.5), 1e-120, _expkumg_hp),
        ("mokumg", (0.3, 2.5, 1.4), 1e-20, _mokumg_hp),
        ("gammag1", (0.6,), 1e-20, _gammag1_hp),
        ("loggammag2", (0.6, 1.7), 1e-20, _loggammag2_hp),
        # without one_minus_u, -ln(1 - u) is taken from u itself
        ("loggammag1", (0.6, 1.7), 1e-20, _loggammag1_hp),
    ],
)
def test_log_h_prime_far_below_eps(family, induced, u, oracle):
    got = log_h_prime(family, u, induced)
    want = mp.log(oracle(mp.mpf(u), *[mp.mpf(v) for v in induced]))
    assert np.isfinite(got)
    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("u", [1e-6, 1e-10])
@pytest.mark.parametrize("alpha,beta", [(0.7196386718610194, 0.9426657719947771), (2.5, 1.3)])
def test_f_survival_left_tail(u, alpha, beta):
    params = (alpha, beta, 0.0)
    y = base_quantile("f", u, params)
    cdf, _ = _f(mp.mpf(y), mp.mpf(alpha), mp.mpf(beta))
    assert base_sf("f", y, params) == pytest.approx(float(1 - cdf), rel=4 * np.finfo(float).eps, abs=0.0)
    assert base_log_sf("f", y, params) == pytest.approx(float(mp.log1p(-cdf)), rel=1e-13, abs=0.0)


def test_f_cdf_and_survival_are_complements_at_huge_shape():
    # alpha y / (alpha y + beta) rounds to 1 here, so a cdf taken from it
    # reads 1 while the survival value is 0.007; both now come from one
    # betainc call on the side of the beta mean
    alpha, beta, y = 2e27, 1.07, 7095.0
    u, sf = base_cdf("f", y, (alpha, beta, 0.0)), base_sf("f", y, (alpha, beta, 0.0))
    assert u + sf == 1.0
    t = mp.mpf(beta) / (mp.mpf(alpha) * y + beta)
    want = mp.betainc(mp.mpf(beta) / 2, mp.mpf(alpha) / 2, 0, t, regularized=True)
    assert sf == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "family,induced,u,oracle",
    [
        # 1 - (1 - u)^a and e^{-a(1 - u)} - e^{-a} both cancel when rebuilt
        # from 1 - u; the first was exactly 0 here
        ("expgg", (2.0, 0.57), 1e-17, _expgg_h),
        ("gexppg", (2.0, 0.5), 1e-8, _gexppg_h),
        ("gexppg", (2.0, 0.5), 1e-12, _gexppg_h),
    ],
)
def test_h_forward_far_below_eps(family, induced, u, oracle):
    want = oracle(mp.mpf(u), *[mp.mpf(v) for v in induced])
    assert h_forward(family, u, induced) == pytest.approx(float(want), rel=1e-13, abs=0.0)


def test_weibullextg_at_a_tiny_a():
    # h = 1 - exp(-a (u/(1 - u))^(1/b)), where the form (t/a^-b)^(1/b) would
    # overflow at a^-b = 1e600
    u = -mp.expm1(-1)  # the exp base with rate 1 at x = 1
    want = -mp.expm1(-mp.mpf(1e-3) * (u / (1 - u)) ** (1 / mp.mpf(200)))
    got = family_cdf("weibullextg", "exp", 1.0, (1e-3, 200.0, 1.0, 0.0))
    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("u", [1e-10, 1e-5, 0.5, 1.0 - 1e-6])
@pytest.mark.parametrize("induced", [(1.0, 2.0, 0.8), (0.5, 3.0, 2.0), (0.3, 0.3, 3.0)])
def test_betaexpg_h_both_tails(induced, u):
    # h = 1 - I_y(a, b) at y = (1 - u)^d rounds to 0 in the left tail (the
    # true h at u = 1e-10 with (1, 2, 0.8) is 6.4e-21), and I_{1-y}(b, a)
    # alone loses y inside scipy where y nears 0
    want = _betaexpg_h(mp.mpf(u), *[mp.mpf(v) for v in induced])
    assert h_forward("betaexpg", u, induced) == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("u", [1e-10, 1e-16])
@pytest.mark.parametrize(
    "base,shape,cdf",
    [("chisq", (1.5,), _chisq_cdf), ("gamma", (2.5, 1.3), _gamma_cdf), ("frechet", (2.0, 1.0), _frechet_cdf)],
    ids=["chisq", "gamma", "frechet"],
)
def test_survival_left_tail(base, shape, cdf, u):
    params = shape + (0.0,)
    y = base_quantile(base, u, params)
    want = cdf(mp.mpf(y), *[mp.mpf(v) for v in shape])
    assert base_sf(base, y, params) == pytest.approx(float(1 - want), rel=1e-12, abs=0.0)
    assert base_log_sf(base, y, params) == pytest.approx(float(mp.log1p(-want)), rel=1e-12, abs=0.0)


# --- oracle inverse transforms: (u, -ln(1 - u)) at h(u) = p ------------------

def _mog_inv(p, a):
    den = 1 - (1 - a) * p
    return a * p / den, -mp.log((1 - p) / den)


def _expgg_inv(p, a, b):
    lsf = -mp.log(1 - p ** (1 / b)) / a
    return -mp.expm1(-lsf), lsf


def _betaexpg_inv(p, a, b, d):
    # (1 - u)^d = y with I_y(a, b) = 1 - p; solved for whichever of y and
    # 1 - y (I_{1-y}(b, a) = p) is small, from scipy's double as the start
    if p < 0.5:
        z = mp.findroot(lambda z: mp.betainc(b, a, 0, z, regularized=True) - p, sc.betaincinv(float(b), float(a), float(p)))
        lsf = -mp.log1p(-z) / d
    else:
        y = mp.findroot(lambda y: mp.betainc(a, b, 0, y, regularized=True) - (1 - p), sc.betaincinv(float(a), float(b), float(1 - p)))
        lsf = -mp.log(y) / d
    return -mp.expm1(-lsf), lsf


def _gexppg_inv(p, a, b):
    omu = -mp.log(mp.exp(-a) + p * (1 - mp.exp(-a)) * (1 - b) / (1 - p * b)) / a
    return 1 - omu, -mp.log(omu)


@pytest.mark.parametrize("p", [1e-10, 1e-20, 1.0 - 1e-10])
@pytest.mark.parametrize(
    "family,induced,oracle",
    [
        ("mog", (2.0,), _mog_inv),
        ("expgg", (2.0, 0.57), _expgg_inv),
        ("betaexpg", (2.0, 1.5, 1.2), _betaexpg_inv),
        ("gexppg", (2.0, 0.5), _gexppg_inv),
    ],
    ids=["mog", "expgg", "betaexpg", "gexppg"],
)
def test_h_inverse_both_tails(family, induced, oracle, p):
    # u must not be rebuilt as 1 - (1 - u) in the left tail, and -ln(1 - u)
    # must keep its precision as p nears 1
    want_u, want_lsf = oracle(mp.mpf(p), *[mp.mpf(v) for v in induced])
    if p < 0.5:
        assert h_inverse(family, p, induced) == pytest.approx(float(want_u), rel=1e-12, abs=0.0)
    else:
        assert _h_inverse(family, p, induced)[1] == pytest.approx(float(want_lsf), rel=1e-12, abs=0.0)


# --- oracle per primitive map: forward triple, ln|phi'| and inverse ----------

from genfit import chains as ft  # noqa: E402


def _ln_u(u, omu):
    return mp.log(u) if u < 0.5 else mp.log1p(-omu)


def _ln_o(u, omu):
    return mp.log1p(-u) if u < 0.5 else mp.log(omu)


# each oracle maps (u, 1 - u), or t, to (phi, 1 - phi) or t, with both sides
# computed directly so that neither is rebuilt from the other
UNIT_ORACLES = {
    "P": (lambda u, o, a: (mp.exp(a * _ln_u(u, o)), -mp.expm1(a * _ln_u(u, o))),
          lambda u, o, a: mp.log(a) + (a - 1) * _ln_u(u, o)),
    "RP": (lambda u, o, b: (-mp.expm1(b * _ln_o(u, o)), o**b),
           lambda u, o, b: mp.log(b) + (b - 1) * _ln_o(u, o)),
    "MO": (lambda u, o, c: (u / (u + c * o), c * o / (u + c * o)),
           lambda u, o, c: mp.log(c) - 2 * mp.log(u + c * o)),
    "OP": (lambda u, o, d: (u**d / (u**d + o**d), o**d / (u**d + o**d)),
           lambda u, o, d: mp.log(d) + (d - 1) * (_ln_u(u, o) + _ln_o(u, o)) - 2 * mp.log(u**d + o**d)),
    "B": (lambda u, o, p, q: (mp.betainc(p, q, 0, u, regularized=True), mp.betainc(q, p, 0, o, regularized=True)),
          lambda u, o, p, q: (p - 1) * _ln_u(u, o) + (q - 1) * _ln_o(u, o) - mp.log(mp.beta(p, q))),
    "TE": (lambda u, o, c: (mp.expm1(-c * u) / mp.expm1(-c), mp.exp(-c * u) * mp.expm1(-c * o) / mp.expm1(-c)),
           lambda u, o, c: mp.log(c) - c * u - mp.log(-mp.expm1(-c))),
    "QT": (lambda u, o, b: (u * (1 + b * o), o * (1 - b * u)),
           lambda u, o, b: mp.log(1 + b * (o - u))),
    "R": (lambda u, o: (o, u), lambda u, o: mp.mpf(0)),
}
UNIT_CASES = [("P", (0.3,)), ("P", (2.5,)), ("RP", (0.4,)), ("RP", (3.0,)), ("MO", (0.2,)), ("MO", (4.0,)),
              ("OP", (0.6,)), ("OP", (2.0,)), ("B", (0.7, 2.5)), ("B", (3.0, 0.8)), ("TE", (1.5,)),
              ("TE", (30.0,)), ("QT", (0.7,)), ("QT", (-0.9,)), ("R", ())]
# a point is v itself below 1/2, and -ln(1 - v) from 1/2 up, to 1e3
UNIT_POINTS = [("v", 1e-300), ("v", 1e-100), ("v", 1e-20), ("v", 1e-8), ("v", 0.3),
               ("l", 0.6931471805599453), ("l", 2.0), ("l", 18.420680743952367),
               ("l", 27.631021115928547), ("l", 50.0), ("l", 700.0), ("l", 1000.0)]


def _point(kind, x):
    """(u, 1 - u) in 50 digits and the double triple the chain would carry."""
    if kind == "v":
        u = mp.mpf(x)
        return (u, 1 - u), (np.asarray(x), np.asarray(1.0 - x), np.asarray(-np.log1p(-x)))
    o = mp.exp(-mp.mpf(x))
    return (1 - o, o), (np.asarray(float(-mp.expm1(-mp.mpf(x)))), np.asarray(float(o)), np.asarray(x))


def _neg_log(y, oy):
    return -mp.log1p(-y) if y < 0.5 else -mp.log(oy)


def _assert_triple(got, y, oy, rel, what):
    want = (y, oy, _neg_log(y, oy))
    for g, w, name in zip(got, want, ("v", "1 - v", "-ln(1 - v)")):
        _assert_rel(float(g), w, rel, f"{what}: {name}")


def _run(m, p, s, inverse=False):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return ft._full(ft._apply(m, p, s, inverse))


@pytest.mark.parametrize("kind,x", UNIT_POINTS, ids=[f"{k}={x:g}" for k, x in UNIT_POINTS])
@pytest.mark.parametrize("name,params", UNIT_CASES, ids=[f"{n}{p}" for n, p in UNIT_CASES])
def test_unit_primitive_matches_oracle(name, params, kind, x):
    phi, lpd = UNIT_ORACLES[name]
    m, mp_params = getattr(ft, name), [mp.mpf(v) for v in params]
    (u, o), s = _point(kind, x)
    y, oy = phi(u, o, *mp_params)
    # special functions (betainc, betaincinv) carry their own few-ulp error
    rel = 1e-12 if name == "B" else 1e-13
    _assert_triple(_run(m, params, s), y, oy, rel, "forward")
    lv = float(_ln_u(u, o))
    with np.errstate(divide="ignore", invalid="ignore"):
        got = float(m.lpd(lv, *s, *params))
    assert got == pytest.approx(float(lpd(u, o, *mp_params)), rel=rel, abs=1e-15)
    if y > 1e-300:
        # the inverse from the oracle's own triple of the image
        image = (np.asarray(float(y)), np.asarray(float(oy)), np.asarray(float(_neg_log(y, oy))))
        _assert_triple(_run(m, params, image, inverse=True), u, o, rel, "inverse")


POS_ORACLES = {
    "GP": (lambda t, a: (mp.gammainc(a, 0, t, regularized=True), mp.gammainc(a, t, mp.inf, regularized=True)),
           lambda t, a: (a - 1) * mp.log(t) - t - mp.loggamma(a)),
    "W": (lambda t, k, c: (-mp.expm1(-((t / c) ** k)), mp.exp(-((t / c) ** k))),
          lambda t, k, c: mp.log(k) - k * mp.log(c) + (k - 1) * mp.log(t) - (t / c) ** k),
    "LL": (lambda t, a: (t**a / (1 + t**a), 1 / (1 + t**a)),
           lambda t, a: mp.log(a) + (a - 1) * mp.log(t) - 2 * mp.log1p(t**a)),
}
POS_ORACLES.update({
    "E": (lambda t: (-mp.expm1(-t), mp.exp(-t)), lambda t: -t),
    "ODI": (lambda t: (t / (1 + t), 1 / (1 + t)), lambda t: -2 * mp.log1p(t)),
    "Fr": (lambda t, k: (mp.exp(-(t**-k)), -mp.expm1(-(t**-k))), lambda t, k: mp.log(k) - (k + 1) * mp.log(t) - t**-k),
})
POS_CASES = [("GP", (2.5,)), ("GP", (0.4,)), ("W", (1.7, 2.0)), ("W", (0.5, 0.3)), ("LL", (0.8,)), ("LL", (3.0,)),
             ("E", ()), ("ODI", ()), ("Fr", (0.4,)), ("Fr", (3.0,))]
POS_POINTS = [1e-300, 1e-20, 1e-3, 0.7, 3.0, 40.0, 300.0, 700.0]


def _pos_chain(name, params):
    # W, the Weibull cdf, is no map of its own but the chain E o Pw(k) o Sc(1/c)
    if name == "W":
        return [ft.E(), ft.Pw(params[0]), ft.Sc(1.0 / params[1])]
    return [getattr(ft, name)(*params)]


@pytest.mark.parametrize("t", POS_POINTS)
@pytest.mark.parametrize("name,params", POS_CASES, ids=[f"{n}{p}" for n, p in POS_CASES])
def test_back_primitive_matches_oracle(name, params, t):
    # the maps from t on (0, inf) back to the unit interval
    phi, lpd = POS_ORACLES[name]
    steps, mp_params, tm = _pos_chain(name, params), [mp.mpf(v) for v in params], mp.mpf(t)
    y, oy = phi(tm, *mp_params)
    if oy < mp.mpf(10) ** -300000:
        pytest.skip("1 - phi below any double exponent the oracle can state")
    # 1e-12 for the gamma functions, also where Q(a, t) is below e^-600: the
    # forward map past its underflow and the inverse (special_functions) use
    # there Q's continued fraction
    rel = 1e-13 if name != "GP" else 1e-12
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _assert_triple(ft._full(ft._forward(steps, (np.asarray(t),))), y, oy, rel, "forward")
        got = float(ft._log_slope(steps, (np.asarray(t),)))
    want = lpd(tm, *mp_params)
    if abs(want) > 1e300:
        assert got == -math.inf  # ln|phi'| below the doubles
    else:
        assert got == pytest.approx(float(want), rel=rel, abs=1e-15)
    if 1e-300 < y and oy > 1e-300:
        image = (np.asarray(float(y)), np.asarray(float(oy)), np.asarray(float(_neg_log(y, oy))))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            back = float(ft._quantile(steps, image))
        assert back == pytest.approx(t, rel=rel, abs=0.0)


@pytest.mark.parametrize("kind,x", UNIT_POINTS, ids=[f"{k}={x:g}" for k, x in UNIT_POINTS])
def test_links_match_oracle(kind, x):
    # L1 = -ln(1 - v) and OD = v/(1 - v), their ln|phi'| and inverses, and the scale
    (u, o), s = _point(kind, x)
    for m, want, lpd in ((ft.L1, -_ln_o(u, o), -_ln_o(u, o)), (ft.OD, u / o, -2 * _ln_o(u, o))):
        if want > 1e300:
            continue
        t = _run(m, (), s)[0]
        _assert_rel(float(t), want, 1e-13, kind)
        assert float(m.lpd(float(_ln_u(u, o)), *s)) == pytest.approx(float(lpd), rel=1e-13, abs=1e-15)
        if want > 1e-300:
            _assert_triple(_run(m, (), (np.asarray(float(want)),), inverse=True), u, o, 1e-13, "inverse")
    t = np.asarray(float(-_ln_o(u, o)))
    assert float(_run(ft.Sc, (2.5,), (t,))[0]) == pytest.approx(2.5 * float(t), rel=1e-15)
    assert float(_run(ft.Sc, (2.5,), (2.5 * t,), inverse=True)[0]) == pytest.approx(float(t), rel=1e-15)


# --- oracle per base: every public function at four points --------------------

def _hazard_form(cum, rate):
    """(cdf, sf, pdf) of a base whose survival value is e^-H, from H and dH/dy."""
    def oracle(y, *p):
        h = cum(y, *p)
        return -mp.expm1(-h), mp.exp(-h), rate(y, *p) * mp.exp(-h)
    return oracle


def _normal_form(z, dz):
    """(cdf, sf, pdf) of a base whose cdf is the normal cdf of z(y)."""
    def oracle(y, *p):
        zy = z(y, *p)
        return mp.ncdf(zy), mp.ncdf(-zy), mp.npdf(zy) * dz(y, *p)
    return oracle


def _gamma_form(y, a, scale):
    x = y / scale
    return (mp.gammainc(a, 0, x, regularized=True), mp.gammainc(a, x, mp.inf, regularized=True),
            x ** (a - 1) * mp.exp(-x) / (mp.gamma(a) * scale))


def _f_form(y, alpha, beta):
    cdf, pdf = _f(y, alpha, beta)
    return cdf, mp.betainc(beta / 2, alpha / 2, 0, beta / (alpha * y + beta), regularized=True), pdf


def _frechet_form(y, alpha, beta):
    r = (y / beta) ** -alpha
    return mp.exp(-r), -mp.expm1(-r), alpha / beta * (y / beta) ** (-alpha - 1) * mp.exp(-r)


def _loglogistic_form(y, alpha, beta):
    ra = (y / beta) ** alpha
    return ra / (1 + ra), 1 / (1 + ra), alpha / y * ra / (1 + ra) ** 2


# (oracle, shape): (cdf, sf, pdf) at y > 0, each side computed directly
BASE_ORACLES = {
    "birnbaum-saunders": (_normal_form(lambda y, a, b: (mp.sqrt(y / b) - mp.sqrt(b / y)) / a,
                                       lambda y, a, b: (mp.sqrt(y / b) + mp.sqrt(b / y)) / (2 * a * y)), (0.5, 1.0)),
    "burrxii": (_hazard_form(lambda y, a, b: a * mp.log1p(y**b), lambda y, a, b: a * b * y ** (b - 1) / (1 + y**b)),
                (2.0, 3.0)),
    "chen": (_hazard_form(lambda y, a, b: b * mp.expm1(y**a), lambda y, a, b: a * b * y ** (a - 1) * mp.exp(y**a)),
             (0.7, 0.5)),
    "chisq": (lambda y, a: _gamma_form(y, a / 2, 2), (3.0,)),
    "exp": (_hazard_form(lambda y, a: a * y, lambda y, a: a), (1.7,)),
    "f": (_f_form, (2.5, 6.0)),
    "frechet": (_frechet_form, (2.0, 1.5)),
    "gamma": (_gamma_form, (2.5, 1.3)),
    "gompertz": (_hazard_form(lambda y, a, b: a / b * mp.expm1(b * y), lambda y, a, b: a * mp.exp(b * y)), (0.5, 1.2)),
    "lfr": (_hazard_form(lambda y, a, b: a * y + b * y * y / 2, lambda y, a, b: a + b * y), (0.8, 1.5)),
    "log-logistic": (_loglogistic_form, (2.5, 1.3)),
    "log-normal": (_normal_form(lambda y, a, b: (mp.log(y) - a) / b, lambda y, a, b: 1 / (b * y)), (0.3, 0.6)),
    "lomax": (_hazard_form(lambda y, a, b: a * mp.log1p(b * y), lambda y, a, b: a * b / (1 + b * y)), (1.3, 2.0)),
    "rayleigh": (_hazard_form(lambda y, b: (y / b) ** 2, lambda y, b: 2 * y / b**2), (1.5,)),
    "weibull": (_hazard_form(lambda y, a, b: (y / b) ** a, lambda y, a, b: a / b * (y / b) ** (a - 1)), (1.7, 2.0)),
}
# a left-tail point and the median by probability, then two points by
# l = -ln(survival value): one where 1 - u rounds to 0, one near underflow
BASE_POINTS = [("q", 1e-10), ("q", 0.5), ("l", 50.0), ("l", 700.0)]


def _newton(y, target, value, slope):
    """The root of value(y) = target, polished from the double y in 50 digits."""
    y = mp.mpf(y)
    for _ in range(6):
        y -= (value(y) - target) / slope(y)
    return y


@pytest.mark.parametrize("kind,x", BASE_POINTS, ids=[f"{k}={x:g}" for k, x in BASE_POINTS])
@pytest.mark.parametrize("base", sorted(BASE_ORACLES))
def test_base_matches_oracle(base, kind, x):
    oracle, shape = BASE_ORACLES[base]
    params, mp_shape = shape + (0.0,), [mp.mpf(v) for v in shape]
    l = -math.log1p(-x) if kind == "q" else x
    y = base_quantile(base, x, params) if kind == "q" else base_isf_log(base, l, params)
    assert np.isfinite(y) and y > 0.0
    cdf, sf, pdf = oracle(mp.mpf(y), *mp_shape)
    _assert_rel(base_cdf(base, y, params), cdf, 1e-12, y)
    _assert_rel(base_sf(base, y, params), sf, 1e-12, y)
    assert base_log_sf(base, y, params) == pytest.approx(float(mp.log(sf)), rel=1e-12, abs=0.0)
    assert base_log_pdf(base, y, params) == pytest.approx(float(mp.log(pdf)), rel=1e-12, abs=1e-13)
    # the inverses against the 50-digit root at the same probability
    def forms(t):
        return oracle(t, *mp_shape)
    if kind == "q":
        want = _newton(y, mp.mpf(x), lambda t: forms(t)[0], lambda t: forms(t)[2])
        assert base_quantile(base, x, params) == pytest.approx(float(want), rel=1e-12, abs=0.0)
    want = _newton(y, mp.mpf(l), lambda t: -mp.log(forms(t)[1]), lambda t: forms(t)[2] / forms(t)[1])
    assert base_isf_log(base, l, params) == pytest.approx(float(want), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("x", [1e8, 1e14, 1e20])
@pytest.mark.parametrize(
    "base,shape",
    [("gamma", (2.5, 1.3)), ("chisq", (3.0,)), ("birnbaum-saunders", (0.5, 1.0)), ("log-normal", (0.3, 0.6))],
    ids=["gamma", "chisq", "birnbaum-saunders", "log-normal"],
)
def test_base_log_hazard_far_right(base, shape, x):
    # ln g - ln(1 - G), whose two terms are both of order -ln(1 - G) here
    _, sf, pdf = BASE_ORACLES[base][0](mp.mpf(x), *[mp.mpf(v) for v in shape])
    got = base_log_hazard(base, x, shape + (0.0,))
    assert got == pytest.approx(float(mp.log(pdf) - mp.log(sf)), rel=1e-12, abs=0.0)


LARGE_SHAPE = [("gamma", (1e7, 1.0), y) for y in (5e6, 9.997e6, 1e7, 1.05e7, 1.5e7, 3e7)] + [
    ("chisq", (1.5e7,), y) for y in (1.4995e7, 1.501e7)]


@pytest.mark.parametrize("base,shape,y", LARGE_SHAPE, ids=[f"{b}-{y:g}" for b, _, y in LARGE_SHAPE])
def test_gamma_at_a_large_shape(base, shape, y):
    # the terms of (a - 1) ln t - t - ln Gamma(a) are each about 1.6e8 at
    # a = 1e7, and cancel to ln g; right of the mode 1 - G underflows from
    # y = 1.012e7, and ln g - ln(1 - G) cancels too
    a, scale = (mp.mpf(shape[0]), mp.mpf(shape[1])) if base == "gamma" else (mp.mpf(shape[0]) / 2, mp.mpf(2))
    t, params = mp.mpf(y) / scale, shape + (0.0,)
    sf = mp.gammainc(a, t, mp.inf, regularized=True)  # the lower integral does not converge here
    pdf = mp.exp((a - 1) * mp.log(t) - t - mp.loggamma(a)) / scale
    assert base_log_pdf(base, y, params) == pytest.approx(float(mp.log(pdf)), rel=1e-13, abs=0.0)
    assert base_log_sf(base, y, params) == pytest.approx(float(mp.log(sf)), rel=1e-13, abs=1e-300)
    assert base_log_hazard(base, y, params) == pytest.approx(float(mp.log(pdf) - mp.log(sf)), rel=1e-13, abs=0.0)
    if sf < 0.5:
        assert base_isf_log(base, float(-mp.log(sf)), params) == pytest.approx(y, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("l", [700.0, 1e4])
@pytest.mark.parametrize("a", [1e5, 1e10])
def test_gamma_isf_log_past_the_underflow_at_a_large_shape(a, l):
    # e^-l underflows, so the inverse solves ln Q(a, y) = -l by Newton; at
    # these shapes the root lies near a, where an asymptotic series of Q in
    # (a - j)/y does not converge
    y = base_isf_log("gamma", l, (a, 1.0, 0.0))
    assert float(-mp.log(mp.gammainc(a, y, mp.inf, regularized=True))) == pytest.approx(l, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "base,shape,y",
    [("f", (2.5, 60.0), 3e12), ("frechet", (2.0, 1.5), 1e200), ("gamma", (2.5, 1.3), 1500.0),
     ("chisq", (3.0,), 2000.0), ("log-normal", (0.3, 0.6), 1e10), ("birnbaum-saunders", (0.5, 1.0), 1e3)],
    ids=["f", "frechet", "gamma", "chisq", "log-normal", "birnbaum-saunders"],
)
def test_base_log_sf_past_the_underflow_of_sf(base, shape, y):
    # 1 - G is below the doubles here (ln of it from -722 to -2001), and its
    # log comes from each cdf map's own behaviour at 1
    _, sf, _ = BASE_ORACLES[base][0](mp.mpf(y), *[mp.mpf(v) for v in shape])
    assert base_sf(base, y, shape + (0.0,)) == 0.0
    assert base_log_sf(base, y, shape + (0.0,)) == pytest.approx(float(mp.log(sf)), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "base,shape", [("burrxii", (2.0, 50.0)), ("log-logistic", (50.0, 1.0))], ids=["burrxii", "log-logistic"]
)
def test_base_log_sf_past_the_overflow_of_the_power(base, shape):
    # y^50 overflows at y = 1e10, while ln(1 - G) stays near -2302.6 and -1151.3
    y, params = 1e10, shape + (0.0,)
    _, sf, pdf = BASE_ORACLES[base][0](mp.mpf(y), *[mp.mpf(v) for v in shape])
    assert base_log_sf(base, y, params) == pytest.approx(float(mp.log(sf)), rel=1e-13, abs=0.0)
    assert base_log_pdf(base, y, params) == pytest.approx(float(mp.log(pdf)), rel=1e-13, abs=0.0)


# the normal cdf, from the real line to the unit interval, at points of both signs
REAL_ORACLES = {
    "N": (lambda z: (mp.ncdf(z), mp.ncdf(-z)), lambda z: -z * z / 2 - mp.log(2 * mp.pi) / 2),
}
REAL_POINTS = [-38.0, -5.0, -1e-3, 0.3, 5.0, 38.0, 800.0]


@pytest.mark.parametrize("z", REAL_POINTS)
@pytest.mark.parametrize("name", sorted(REAL_ORACLES))
def test_real_primitive_matches_oracle(name, z):
    phi, lpd = REAL_ORACLES[name]
    m, zm = getattr(ft, name), mp.mpf(z)
    y, oy = phi(zm)
    if y < 1e-300:
        pytest.skip("v below the doubles: the map's state reads 0 there")
    _assert_triple(_run(m, (), (np.asarray(z),)), y, oy, 1e-13, "forward")
    assert float(m.lpd(0.0, np.asarray(z))) == pytest.approx(float(lpd(zm)), rel=1e-13, abs=1e-15)
    image = (np.asarray(float(y)), np.asarray(float(oy)), np.asarray(float(_neg_log(y, oy))))
    back = float(_run(m, (), image, inverse=True)[0])
    # scipy's ndtri_exp keeps about 12 digits at ln(1 - v) = -3.2e5 (z = 800)
    assert back == pytest.approx(z, rel=1e-12 if z > 40.0 else 1e-13, abs=1e-15)


# the maps within (0, inf) and from it to the real line: forward value,
# ln|phi'| and the inverse
INNER_ORACLES = {
    "Pw": (lambda t, a: t**a, lambda t, a: mp.log(a) + (a - 1) * mp.log(t)),
    "X": (lambda t: mp.expm1(t), lambda t: t),
    "Lp": (lambda t, a: mp.log1p(t**a), lambda t, a: mp.log(a * t ** (a - 1) / (1 + t**a))),
    "Q": (lambda t, a, b: a * t + b * t * t / 2, lambda t, a, b: mp.log(a + b * t)),
    "LN": (lambda t: mp.log(t), lambda t: -mp.log(t)),
    "BSL": (lambda t: mp.sqrt(t) - 1 / mp.sqrt(t), lambda t: mp.log((t + 1) / (2 * t * mp.sqrt(t)))),
    "Af": (lambda t, a, b: (t - a) / b, lambda t, a, b: -mp.log(b)),
}
INNER_CASES = [("Pw", (2.5,)), ("Pw", (0.4,)), ("X", ()), ("Lp", (1.0,)), ("Lp", (3.0,)), ("Lp", (50.0,)),
               ("Q", (0.8, 1.5)), ("LN", ()), ("BSL", ()), ("Af", (0.3, 0.6))]


@pytest.mark.parametrize("t", POS_POINTS)
@pytest.mark.parametrize("name,params", INNER_CASES, ids=[f"{n}{p}" for n, p in INNER_CASES])
def test_inner_primitive_matches_oracle(name, params, t):
    phi, lpd = INNER_ORACLES[name]
    m, mp_params, tm = getattr(ft, name), [mp.mpf(v) for v in params], mp.mpf(t)
    want = phi(tm, *mp_params)
    if not 1e-300 < abs(want) < 1e300:
        pytest.skip("the image is past the doubles")
    got = float(_run(m, params, (np.asarray(t),))[0])
    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        got_lpd = float(m.lpd(math.log(t), np.asarray(t), *params))
    assert got_lpd == pytest.approx(float(lpd(tm, *mp_params)), rel=1e-13, abs=1e-15)
    back = float(_run(m, params, (np.asarray(float(want)),), inverse=True)[0])
    # Af's a + b z keeps t only to the absolute precision of a
    assert back == pytest.approx(t, rel=1e-13, abs=1e-16 if name == "Af" else 0.0)


def test_lp_past_the_overflow_of_its_power():
    # ln(1 + t^50) at t = 1e10, where t^50 overflows, and its inverse
    t = 1e10
    got = float(_run(ft.Lp, (50.0,), (np.asarray(t),))[0])
    assert got == pytest.approx(float(mp.log1p(mp.mpf(t) ** 50)), rel=1e-15)
    assert float(_run(ft.Lp, (50.0,), (np.asarray(got),), inverse=True)[0]) == pytest.approx(t, rel=1e-13)


BOT_CASES = [("E", ()), ("ODI", ()), ("GP", (2.5,)), ("LL", (0.8,)), ("Pw", (2.5,)), ("X", ()), ("Lp", (3.0,)),
             ("Q", (0.8, 1.5))]


@pytest.mark.parametrize("name,params", BOT_CASES, ids=[f"{n}{p}" for n, p in BOT_CASES])
def test_bot_rule_matches_oracle(name, params):
    # ln phi(t) ~ r ln t + mu as t -> 0, the rule that carries ln v past the
    # underflow of v
    t = mp.mpf(1e-100)
    phi = {**POS_ORACLES, **INNER_ORACLES}[name][0]
    image = phi(t, *[mp.mpf(v) for v in params])
    r, mu = getattr(ft, name).bot(*params)
    want = mp.log(image[0] if isinstance(image, tuple) else image)
    assert r * math.log(1e-100) + mu == pytest.approx(float(want), rel=1e-13, abs=0.0)
