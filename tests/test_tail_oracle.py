"""Left-tail accuracy against an independent 50-digit oracle (mpmath).

The oracle evaluates the transforms and bases from their closed-form
definitions in multiple precision at the very doubles the library receives,
so any difference is the library's own rounding.  The cases are the left
tails where 1 - u and -ln(1 - u) must not be rebuilt from u's complement:
the near-mu segment of composite densities with a singular left end, the
transforms, their derivatives and their inverses at u far below eps, and the
survival side of the F, chi-square, gamma and Frechet bases.
"""

import numpy as np
import pytest
import scipy.special as sc

from genfit.base_distributions import base_log_sf, base_quantile, base_sf
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
