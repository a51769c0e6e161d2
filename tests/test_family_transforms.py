"""Checks for the transform-family registry and the composed distributions.

Covers the identity reductions (every family collapses to h(u) = u at its
pinned parameter values), finite-difference consistency of log_h_prime with
h_forward, inverse round trips, boundary behavior, and the composed
pdf/cdf/quantile/sample front ends.
"""

import math

import numpy as np
import pytest
import scipy.stats
from scipy.stats import kstest

from genfit.base_distributions import BASE_DISTRIBUTIONS, base_quantile, get_base
from genfit.family_transforms import (
    FAMILIES,
    _h_inverse,
    family_cdf,
    family_log_pdf,
    family_pdf,
    family_quantile,
    family_sample,
    get_family,
    h_forward,
    h_inverse,
    log_h_prime,
    n_total_params,
)

ALL_FAMILIES = sorted(FAMILIES)
ALL_BASES = sorted(BASE_DISTRIBUTIONS)

# parameter values at which each family's transform collapses to h(u) = u
IDENTITY_POINTS = {
    "betaexpg": (1.0, 1.0, 1.0),
    "betag": (1.0, 1.0),
    "expg": (1.0,),
    "expgg": (1.0, 1.0),
    "expkumg": (1.0, 1.0, 1.0),
    "gammag": (1.0,),
    "gammag1": (1.0,),
    "gbetag": (1.0, 1.0, 1.0),
    "gtransg": (1.0, 0.0),
    "kumg": (1.0, 1.0),
    "loggammag1": (1.0, 1.0),
    "loggammag2": (1.0, 1.0),
    "mbetag": (1.0, 1.0, 1.0),
    "mog": (1.0,),
    "mokumg": (1.0, 1.0, 1.0),
    "ologlogg": (1.0, 1.0, 1.0),
    "weibullg": (1.0, 1.0),
}


def default_induced(name):
    """Moderate in-domain parameter values for a family."""
    fam = get_family(name)
    out = []
    for lo, hi in fam.domains:
        if (lo, hi) == (0.0, 1.0):
            out.append(0.5)
        elif (lo, hi) == (-1.0, 1.0):
            out.append(0.3)
        else:
            out.append(1.7)
    return tuple(out)


class TestRegistry:
    def test_count(self):
        assert len(FAMILIES) == 24

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_metadata(self, name):
        fam = get_family(name)
        assert fam.name == name
        assert fam.n_induced == len(fam.param_names) == len(fam.domains)
        assert 1 <= fam.n_induced <= 3

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_family("nope")

    def test_out_of_domain_induced(self):
        with pytest.raises(ValueError):
            h_forward("expg", 0.5, (-1.0,))
        with pytest.raises(ValueError):
            h_forward("gexppg", 0.5, (1.0, 1.5))  # b must be in (0, 1)

    def test_param_count_helpers(self):
        assert n_total_params("kumg", "weibull", location=True) == 5
        assert n_total_params("kumg", "weibull", location=False) == 4


class TestIdentityReductions:
    @pytest.mark.parametrize("name", sorted(IDENTITY_POINTS))
    def test_reduces_to_identity(self, name):
        rng = np.random.default_rng(3)
        u = rng.uniform(0.0, 1.0, size=100)
        np.testing.assert_allclose(
            h_forward(name, u, IDENTITY_POINTS[name]), u, atol=1e-12
        )
        np.testing.assert_allclose(
            log_h_prime(name, u, IDENTITY_POINTS[name]), 0.0, atol=1e-12
        )

    def test_betaexpg_reduces_to_swapped_betag(self):
        # with d = 1, the exponentiated-beta transform is the beta transform
        # with its shape parameters swapped
        rng = np.random.default_rng(4)
        u = rng.uniform(0.0, 1.0, size=100)
        np.testing.assert_allclose(
            h_forward("betaexpg", u, (2.0, 3.0, 1.0)),
            h_forward("betag", u, (3.0, 2.0)),
            atol=1e-12,
        )


class TestTransformShape:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_endpoints(self, name):
        induced = default_induced(name)
        assert h_forward(name, 0.0, induced) == 0.0
        assert h_forward(name, 1.0, induced) == 1.0

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_monotone(self, name):
        induced = default_induced(name)
        u = np.linspace(0.0, 1.0, 201)
        vals = h_forward(name, u, induced)
        assert np.all(np.diff(vals) >= -1e-14)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_log_h_prime_matches_finite_difference(self, name):
        induced = default_induced(name)
        # evaluate at h-quantile-spaced points so no region of the transform
        # is sampled where it is numerically flat
        q = np.linspace(0.05, 0.95, 19)
        u = np.asarray(h_inverse(name, q, induced))
        for ui in u:
            if ui < 1e-8 or 1.0 - ui < 1e-8:
                continue  # transform saturated in double precision
            ana = math.exp(log_h_prime(name, ui, induced))
            if ana < 1e-12:
                continue  # below finite-difference resolution
            step = 1e-6 * min(ui, 1.0 - ui)
            # perturb whichever of u, 1-u is smaller so neither side of the
            # difference loses precision to cancellation
            omu = 1.0 - ui
            hi = h_forward(name, ui + step, induced, one_minus_u=omu - step)
            lo = h_forward(name, ui - step, induced, one_minus_u=omu + step)
            fd = (hi - lo) / (2.0 * step)
            assert fd == pytest.approx(ana, rel=2e-5), f"{name} at u={ui}"


class TestInverses:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_forward_round_trip(self, name):
        induced = default_induced(name)
        rng = np.random.default_rng(5)
        p = rng.uniform(1e-3, 1.0 - 1e-3, size=1000)
        # supply 1-u and -ln(1-u) at full precision: for steep transforms u
        # itself saturates at 1.0 in double precision well inside (0, 1)
        u, lsf = _h_inverse(name, p, induced)
        back = h_forward(name, u, induced, one_minus_u=np.exp(-lsf), neg_log_sf=lsf)
        np.testing.assert_allclose(back, p, atol=1e-9)

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_sf_form_consistent(self, name):
        induced = default_induced(name)
        p = np.linspace(0.05, 0.95, 19)
        u, lsf = _h_inverse(name, p, induced)
        np.testing.assert_array_equal(u, h_inverse(name, p, induced))
        np.testing.assert_allclose(u + np.exp(-lsf), 1.0, atol=1e-9)

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_boundaries(self, name):
        induced = default_induced(name)
        assert h_inverse(name, 0.0, induced) == 0.0
        assert h_inverse(name, 1.0, induced) == 1.0
        assert _h_inverse(name, 0.0, induced) == (0.0, 0.0)
        assert _h_inverse(name, 1.0, induced) == (1.0, math.inf)

    def test_out_of_range_p(self):
        with pytest.raises(ValueError):
            h_inverse("kumg", 1.5, (1.0, 1.0))


class TestComposedDistribution:
    def test_gamma_shape_reduction(self):
        # the gamma transform over an exponential base is the gamma
        # distribution with shape a and the exponential's rate
        a, rate = 2.5, 1.3
        frozen = scipy.stats.gamma(a, scale=1.0 / rate)
        x = np.array([0.2, 0.7, 1.5, 3.0, 6.0])
        np.testing.assert_allclose(
            family_pdf("gammag", "exp", x, (a, rate, 0.0)), frozen.pdf(x), rtol=1e-12
        )
        np.testing.assert_allclose(
            family_cdf("gammag", "exp", x, (a, rate, 0.0)), frozen.cdf(x), rtol=1e-12
        )

    def test_expg_power_reduction(self):
        # exponentiated transform of a uniform-like cdf: F = G^a
        x = np.array([0.5, 1.0, 2.0])
        lhs = family_cdf("expg", "weibull", x, (3.0, 1.0, 1.0, 0.0))
        g = 1.0 - np.exp(-x)
        np.testing.assert_allclose(lhs, g**3.0, rtol=1e-12)

    def test_betag_log_h_prime_pin(self):
        # at u = 1/2 with both shapes 2: ln(u(1-u)/B(2,2)) = ln(3/2)
        assert log_h_prime("betag", 0.5, (2.0, 2.0)) == pytest.approx(
            math.log(1.5), abs=1e-13
        )

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("base", ALL_BASES)
    def test_cdf_limits(self, family, base):
        # at the moderate defaults and at a seeded draw, the cdf is exactly 0
        # at mu and exactly 1 at +inf, where the base triple is exact
        rng = np.random.default_rng([ALL_FAMILIES.index(family), ALL_BASES.index(base)])
        seeded = tuple(
            rng.uniform(0.5, 3.0) if math.isinf(hi) else rng.uniform(0.8 * lo + 0.2 * hi, 0.2 * lo + 0.8 * hi)
            for lo, hi in get_family(family).domains
        ) + tuple(rng.uniform(0.5, 3.0, size=get_base(base).n_params))
        for shape in (default_induced(family) + (1.3,) * get_base(base).n_params, seeded):
            params = shape + (0.5,)
            assert family_cdf(family, base, 0.5, params) == 0.0  # at mu
            x_hi = family_quantile(family, base, 1.0 - 1e-7, params)
            if np.isfinite(x_hi):
                assert 1.0 - 1e-6 <= family_cdf(family, base, x_hi, params) <= 1.0
            assert family_cdf(family, base, math.inf, params) == 1.0

    def test_cdf_at_an_overflowing_quantile(self):
        # the F base's kernel forms inf/inf at x = +inf
        params = (0.658, 1.223, 1.169, 0.0)
        x = family_quantile("gxlogisticg", "f", 0.99, params)
        assert x == math.inf
        assert family_cdf("gxlogisticg", "f", x, params) == 1.0

    def test_flag_semantics(self):
        params = (1.7, 1.7, 1.3, 1.3, 0.0)
        x = 1.1
        p = family_cdf("kumg", "weibull", x, params)
        # the upper tail is the chain's own 1 - h, checked against 50 digits
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            g = -mp.expm1(-((mp.mpf(x) / mp.mpf(1.3)) ** mp.mpf(1.3)))
            want = (1 - g ** mp.mpf(1.7)) ** mp.mpf(1.7)
            assert family_cdf("kumg", "weibull", x, params, lower_tail=False) == pytest.approx(
                float(want), rel=1e-14, abs=0.0
            )
        assert family_cdf("kumg", "weibull", x, params, log_p=True) == math.log(p)
        q = family_quantile("kumg", "weibull", p, params)
        assert q == pytest.approx(x, rel=1e-10)
        # log_p quantile is evaluated at exp(p)
        assert family_quantile(
            "kumg", "weibull", math.log(p), params, log_p=True
        ) == pytest.approx(x, rel=1e-10)
        assert family_quantile(
            "kumg", "weibull", 1.0 - p, params, lower_tail=False
        ) == pytest.approx(x, rel=1e-10)

    def test_upper_tail_reads_the_triple(self):
        # 1 - h is never formed by subtraction: the expg x exp survival at 40
        # is e^-40 = 4.2e-18, not 0, and the upper-tail quantile at q = 1e-20
        # is -ln q = 46.0517, not +inf
        params = (1.0, 1.0)
        sf = family_cdf("expg", "exp", 40.0, params, location=False, lower_tail=False)
        assert sf == pytest.approx(math.exp(-40.0), rel=1e-14)
        log_sf = family_cdf("expg", "exp", 40.0, params, location=False, lower_tail=False, log_p=True)
        assert log_sf == pytest.approx(-40.0, rel=1e-14)
        q = family_quantile("expg", "exp", 1e-20, params, location=False, lower_tail=False)
        assert q == pytest.approx(-math.log(1e-20), rel=1e-14)
        # with log_p the upper tail goes past the underflow of q itself
        q = family_quantile("expg", "exp", -1000.0, params, location=False, lower_tail=False, log_p=True)
        assert q == pytest.approx(1000.0, rel=1e-14)

    def test_log_pdf_matches_pdf(self):
        params = (1.7, 0.5, 1.3, 1.3, 0.0)
        x = np.array([0.3, 1.0, 2.5])
        np.testing.assert_allclose(
            family_pdf("gexppg", "gamma", x, params, log=True),
            np.log(family_pdf("gexppg", "gamma", x, params)),
            rtol=1e-12,
        )

    def test_pdf_zero_below_support(self):
        params = (1.7, 1.3, 1.3, 2.0)
        assert family_pdf("expg", "weibull", 1.5, params) == 0.0
        assert family_log_pdf("expg", "weibull", 1.5, params) == -math.inf

    def test_location_off(self):
        # location=False is the mu=0 slice of the location-on model
        x = np.array([0.4, 1.2])
        np.testing.assert_array_equal(
            family_cdf("mog", "exp", x, (1.7, 1.3), location=False),
            family_cdf("mog", "exp", x, (1.7, 1.3, 0.0), location=True),
        )

    def test_wrong_param_count(self):
        with pytest.raises(ValueError):
            family_cdf("kumg", "weibull", 1.0, (1.0, 1.0, 1.0, 1.0))  # missing mu


class TestDeepTailDensity:
    # the log-scale transform's h' grows like 1/(1-u), so its composite
    # density is evaluated through the survival-weighted derivative and the
    # base hazard; these pin that path against the generic product and check
    # it stays sane past the point where the generic product is cancellation
    # noise

    PARAMS = (0.7, 1.2, 1.1, 0.5)  # gxlogisticg a, bs alpha, bs beta, mu

    def test_matches_generic_product_at_moderate_x(self):
        from genfit.base_distributions import base_cdf, base_log_pdf, base_sf

        # x kept moderate: the generic product itself loses the tail once
        # the base survival underflows, which is what the hazard path fixes
        x = np.array([0.8, 1.5, 4.0, 50.0, 500.0])
        bp = self.PARAMS[1:]
        u = base_cdf("birnbaum-saunders", x, bp)
        omu = base_sf("birnbaum-saunders", x, bp)
        generic = log_h_prime(
            "gxlogisticg", u, (self.PARAMS[0],), one_minus_u=omu
        ) + base_log_pdf("birnbaum-saunders", x, bp)
        ours = family_log_pdf("gxlogisticg", "birnbaum-saunders", x, self.PARAMS)
        np.testing.assert_allclose(ours, generic, rtol=1e-10)

    def test_far_tail_finite_and_decreasing(self):
        x = np.geomspace(1e10, 1e30, 21)
        lp = family_log_pdf("gxlogisticg", "birnbaum-saunders", x, self.PARAMS)
        assert np.all(np.isfinite(lp))
        assert np.all(np.diff(lp) < 0.0)

    def test_far_tail_matches_survival_slope(self):
        # pdf = -d/dx sf; usable while the composite survival is still well
        # above 1 ulp of the cdf (beyond that the FD oracle, not the
        # density, runs out of precision)
        # wide step: the survival difference must stay well above the ulp
        # noise of 1 - h(u); curvature error at this width is ~1e-4 in log
        for x in (1e10, 1e12, 1e14):
            h = 0.01 * x
            fd = (
                family_cdf("gxlogisticg", "birnbaum-saunders", x + h, self.PARAMS, lower_tail=False)
                - family_cdf("gxlogisticg", "birnbaum-saunders", x - h, self.PARAMS, lower_tail=False)
            ) / (-2.0 * h)
            lp = family_log_pdf("gxlogisticg", "birnbaum-saunders", x, self.PARAMS)
            assert math.log(fd) == pytest.approx(lp, rel=1e-4)

    def test_left_edge_underflow_is_zero(self):
        # so close to mu that -ln(sf) underflows: density is reported as 0,
        # not the +inf the naive xlogy term would produce
        assert family_log_pdf(
            "gxlogisticg", "birnbaum-saunders", self.PARAMS[-1] + 1e-6, self.PARAMS
        ) == -np.inf


class TestSampling:
    def test_empty(self):
        x = family_sample("kumg", "weibull", 0, (1.0, 1.0, 1.0, 1.0, 0.0), seed=1)
        assert x.shape == (0,)

    def test_reproducible_and_in_support(self):
        params = (1.7, 1.7, 1.3, 1.3, 2.0)
        a = family_sample("kumg", "weibull", 40, params, seed=9)
        b = family_sample("kumg", "weibull", 40, params, seed=9)
        np.testing.assert_array_equal(a, b)
        assert np.all(a > 2.0)

    def test_ks_against_own_cdf(self):
        params = (0.8, 2.0, 1.5, 1.0, 0.0)
        x = family_sample("kumg", "weibull", 5000, params, seed=31)
        p = kstest(x, lambda t: family_cdf("kumg", "weibull", t, params)).pvalue
        assert p > 0.01
