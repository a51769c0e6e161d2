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

from genfit.base_distributions import base_cdf, base_log_sf, base_quantile, base_sf
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

from genfit import family_transforms as ft  # noqa: E402


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
POS_CASES = [("GP", (2.5,)), ("GP", (0.4,)), ("W", (1.7, 2.0)), ("W", (0.5, 0.3)), ("LL", (0.8,)), ("LL", (3.0,))]
POS_POINTS = [1e-300, 1e-20, 1e-3, 0.7, 3.0, 40.0, 300.0, 700.0]


@pytest.mark.parametrize("t", POS_POINTS)
@pytest.mark.parametrize("name,params", POS_CASES, ids=[f"{n}{p}" for n, p in POS_CASES])
def test_back_primitive_matches_oracle(name, params, t):
    # the maps from t on (0, inf) back to the unit interval
    phi, lpd = POS_ORACLES[name]
    m, mp_params, tm = getattr(ft, name), [mp.mpf(v) for v in params], mp.mpf(t)
    y, oy = phi(tm, *mp_params)
    if oy < mp.mpf(10) ** -300000:
        pytest.skip("1 - phi below any double exponent the oracle can state")
    # 1e-12 for the gamma functions, also where Q(a, t) is below e^-600: the
    # forward map past its underflow and the inverse (special_functions) use
    # there the asymptotic series shared with the gamma base
    rel = 1e-13 if name != "GP" else 1e-12
    _assert_triple(_run(m, params, (np.asarray(t),)), y, oy, rel, "forward")
    with np.errstate(divide="ignore", invalid="ignore"):
        got = float(m.lpd(math.log(t), np.asarray(t), *params))
    assert got == pytest.approx(float(lpd(tm, *mp_params)), rel=rel, abs=1e-15)
    if 1e-300 < y and oy > 1e-300:
        image = (np.asarray(float(y)), np.asarray(float(oy)), np.asarray(float(_neg_log(y, oy))))
        back = float(_run(m, params, image, inverse=True)[0])
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
