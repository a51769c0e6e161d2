"""Checks for the location-shifted base distribution registry.

Closed-form pins, frozen quadrature/bisection oracles, finite-difference
consistency between pdf and cdf, quantile round trips, and sampling sanity.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from genfit.base_distributions import (
    BASE_DISTRIBUTIONS,
    base_cdf,
    base_log_pdf,
    base_log_sf,
    base_pdf,
    base_quantile,
    base_log_hazard,
    base_sample,
    base_sf,
    get_base,
)
from genfit.family_transforms import family_quantile

ALL_BASES = sorted(BASE_DISTRIBUTIONS)


def isf_log(name, l, params):
    """The x with ln sf(x) = -l: expg at a = 1 is the identity family."""
    return family_quantile("expg", name, -l, (1.0, *params), log_p=True, lower_tail=False)

# frozen oracle values
GAMMA_CDF_AT_2 = 0.593994150290162  # quadrature: gamma(alpha=2, beta=1, mu=0) over [0, 2]
BS_QUANTILE_037 = 1.985242793220606  # bisection on cdf(x; 0.9, 2.0, mu=0.5) = 0.37


def default_params(name, mu=0.0):
    """A well-conditioned parameter vector (all shapes moderate) plus mu."""
    dist = get_base(name)
    return tuple([1.3] * dist.n_params) + (mu,)


class TestRegistry:
    def test_count(self):
        assert len(BASE_DISTRIBUTIONS) == 15

    @pytest.mark.parametrize("name", ALL_BASES)
    def test_metadata(self, name):
        dist = get_base(name)
        assert dist.name == name
        assert dist.n_params == len(dist.param_names)
        assert 1 <= dist.n_params <= 2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_base("cauchy")

    def test_wrong_param_count(self):
        with pytest.raises(ValueError):
            base_cdf("weibull", 1.0, (1.0, 2.0))  # missing mu

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(ValueError):
            base_cdf("weibull", 1.0, (-1.0, 2.0, 0.0))

    def test_lognormal_allows_real_first_param(self):
        # first parameter of log-normal is a real-valued log-scale
        assert base_cdf("log-normal", 1.0, (-0.5, 1.0, 0.0)) > 0


class TestClosedFormPins:
    def test_weibull_pdf_at_scale(self):
        alpha, beta = 2.3, 1.7
        assert base_log_pdf("weibull", beta, (alpha, beta, 0.0)) == pytest.approx(
            math.log(alpha / beta) - 1.0, abs=1e-13
        )

    def test_exp_pdf(self):
        alpha = 3.0
        assert base_log_pdf("exp", 1.0, (alpha, 0.0)) == pytest.approx(
            math.log(alpha) - alpha, abs=1e-13
        )

    def test_exp_cdf_shifted(self):
        assert base_cdf("exp", 2.5, (1.0, 1.5)) == pytest.approx(
            -math.expm1(-1.0), abs=1e-14
        )

    def test_gamma_cdf_oracle(self):
        assert base_cdf("gamma", 2.0, (2.0, 1.0, 0.0)) == pytest.approx(
            GAMMA_CDF_AT_2, abs=1e-12
        )

    def test_lomax_median(self):
        assert base_cdf("lomax", 1.0, (1.0, 1.0, 0.0)) == pytest.approx(0.5, abs=1e-14)

    def test_weibull_cdf_at_scale(self):
        assert base_cdf("weibull", 2.0 + 1.7, (3.1, 1.7, 2.0)) == pytest.approx(
            -math.expm1(-1.0), abs=1e-14
        )

    def test_bs_quantile_oracle(self):
        assert base_quantile("birnbaum-saunders", 0.37, (0.9, 2.0, 0.5)) == pytest.approx(
            BS_QUANTILE_037, abs=1e-10
        )

    def test_rayleigh_quantile(self):
        beta = 2.0
        q = 1.0 - math.exp(-1.0)
        assert base_quantile("rayleigh", q, (beta, 0.0)) == pytest.approx(beta, abs=1e-12)

    @pytest.mark.parametrize("med", [0.5, 29.9, 30.0, 200.0, 1e4])
    def test_chen_start_places_median(self, med):
        # past a median of 30 e^med leaves no room for beta; the start must
        # still put G(med) at 1/2 rather than G = 1 on the data
        shape = get_base("chen").start(np.array([0.5 * med, med, 2.0 * med]))
        assert base_cdf("chen", med, tuple(shape) + (0.0,)) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("name", ALL_BASES)
class TestSupportAndShift:
    def test_below_support(self, name):
        params = default_params(name, mu=2.0)
        assert base_pdf(name, 1.5, params) == 0.0
        assert base_cdf(name, 1.5, params) == 0.0
        assert base_sf(name, 1.5, params) == 1.0
        assert base_log_pdf(name, 1.5, params) == -math.inf
        # the support's edge and NaN: the tail kernel is evaluated at y = 0
        for x in (2.0, math.nan):
            assert base_cdf(name, x, params) == 0.0
            assert base_sf(name, x, params) == 1.0
            assert base_log_sf(name, x, params) == 0.0

    def test_at_plus_infinity(self, name):
        # the non-finite rule: (1, 0, +inf) whatever the kernel forms there
        params = default_params(name, mu=2.0)
        assert base_cdf(name, math.inf, params) == 1.0
        assert base_sf(name, math.inf, params) == 0.0
        assert base_log_sf(name, math.inf, params) == -math.inf

    def test_far_right_tail(self, name):
        params = default_params(name, mu=2.0)
        assert base_cdf(name, 1e300, params) == 1.0
        assert 0.0 <= base_sf(name, 1e300, params) < 1e-100

    def test_cdf_just_above_mu(self, name):
        params = default_params(name, mu=2.0)
        assert base_cdf(name, 2.0 + 1e-12, params) <= 1e-6

    def test_quantile_at_zero_is_mu(self, name):
        params = default_params(name, mu=3.25)
        assert base_quantile(name, 0.0, params) == 3.25

    def test_shift_equivariance(self, name):
        dist = get_base(name)
        shape = tuple([1.3] * dist.n_params)
        x = 1.9
        assert base_cdf(name, x, shape + (0.0,)) == pytest.approx(
            base_cdf(name, x + 5.0, shape + (5.0,)), abs=1e-14
        )


@pytest.mark.parametrize("name", ALL_BASES)
class TestInternalConsistency:
    def test_sf_complements_cdf(self, name):
        params = default_params(name)
        x = base_quantile(name, np.linspace(0.05, 0.95, 13), params)
        np.testing.assert_allclose(
            base_cdf(name, x, params) + base_sf(name, x, params), 1.0, atol=1e-12
        )

    def test_log_sf_matches_sf(self, name):
        params = default_params(name)
        x = base_quantile(name, np.linspace(0.05, 0.999, 11), params)
        np.testing.assert_allclose(
            np.exp(base_log_sf(name, x, params)), base_sf(name, x, params), rtol=1e-10
        )

    def test_pdf_is_cdf_derivative(self, name):
        params = default_params(name)
        for q in (0.1, 0.35, 0.6, 0.85):
            x = base_quantile(name, q, params)
            h = 1e-6 * max(abs(x), 1.0)
            fd = (base_cdf(name, x + h, params) - base_cdf(name, x - h, params)) / (
                2.0 * h
            )
            ana = base_pdf(name, x, params)
            assert fd == pytest.approx(ana, rel=1e-5)

    def test_quantile_round_trip(self, name):
        params = default_params(name, mu=0.7)
        rng = np.random.default_rng(11)
        q = rng.uniform(1e-4, 1.0 - 1e-4, size=200)
        np.testing.assert_allclose(
            base_cdf(name, base_quantile(name, q, params), params), q, atol=1e-8
        )

    def test_isf_matches_quantile(self, name):
        params = default_params(name)
        q = np.array([0.05, 0.3, 0.7, 0.99])
        np.testing.assert_allclose(
            isf_log(name, -np.log(1.0 - q), params),
            base_quantile(name, q, params),
            rtol=1e-9,
        )

    def test_identity_family_gives_the_base_quantile(self, name):
        # expg at a = 1 hands the base's inverse the state it was given, bit for bit
        params = default_params(name, mu=0.5)
        p = np.concatenate([[0.0, 1e-300, 1e-20], np.linspace(0.01, 0.99, 99), [1.0 - 1e-10, 1.0]])
        np.testing.assert_array_equal(family_quantile("expg", name, p, (1.0, *params)),
                                      base_quantile(name, p, params))

    def test_isf_log_deep_tail_round_trip(self, name):
        params = default_params(name)
        for l in (5.0, 50.0, 300.0):
            x = isf_log(name, l, params)
            if not np.isfinite(x):
                continue  # honest double-precision overflow for heavy tails
            assert base_log_sf(name, x, params) == pytest.approx(-l, rel=1e-5)

    def test_normalization(self, name):
        params = default_params(name)
        # split at intermediate quantiles so heavy tails don't defeat quadrature
        knots = base_quantile(
            name, [0.0, 0.25, 0.5, 0.75, 0.95, 0.999, 1.0 - 1e-12], params
        )
        total = sum(
            quad(lambda t: base_pdf(name, t, params), lo, hi, limit=200)[0]
            for lo, hi in zip(knots[:-2], knots[1:-1])
        )
        # far tail via t = A / v so the integrand stays on a unit interval
        a_knot, b_knot = knots[-2], knots[-1]
        tail, _ = quad(
            lambda v: base_pdf(name, a_knot / v, params) * a_knot / (v * v),
            a_knot / b_knot,
            1.0,
            limit=200,
        )
        assert total + tail == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("name", ALL_BASES)
class TestLogHazard:
    def test_matches_pdf_over_sf(self, name):
        params = default_params(name, mu=0.4)
        x = base_quantile(name, np.linspace(0.05, 0.95, 13), params)
        direct = base_log_pdf(name, x, params) - np.log(base_sf(name, x, params))
        np.testing.assert_allclose(base_log_hazard(name, x, params), direct, rtol=1e-8)

    def test_outside_support(self, name):
        params = default_params(name, mu=0.4)
        assert base_log_hazard(name, 0.4, params) == -np.inf
        assert base_log_hazard(name, -1.0, params) == -np.inf

    def test_deep_tail_matches_log_sf_slope(self, name):
        # hazard = d/dx of -ln(sf): the closed-form log-survival stays exact
        # far past the point where pdf/sf both underflow, so its finite
        # difference is a valid deep-tail oracle
        params = default_params(name)
        for l in (5.0, 50.0, 200.0):
            x = isf_log(name, l, params)
            h = 1e-6 * max(abs(x), 1.0)
            fd = -(base_log_sf(name, x + h, params) - base_log_sf(name, x - h, params)) / (2.0 * h)
            assert math.log(fd) == pytest.approx(
                base_log_hazard(name, x, params), rel=1e-4
            )

    def test_extreme_tail_finite(self, name):
        params = default_params(name)
        for x in (1e8, 1e14, 1e20):
            assert np.isfinite(base_log_hazard(name, x, params))


class TestSampling:
    def test_empty(self):
        assert base_sample("weibull", 0, (1.0, 1.0, 0.0), seed=1).shape == (0,)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            base_sample("weibull", -1, (1.0, 1.0, 0.0))

    @pytest.mark.parametrize("name", ALL_BASES)
    def test_support_and_reproducibility(self, name):
        params = default_params(name, mu=1.5)
        a = base_sample(name, 50, params, seed=42)
        b = base_sample(name, 50, params, seed=42)
        np.testing.assert_array_equal(a, b)
        assert np.all(a > 1.5)

    def test_weibull_ks(self):
        params = (1.7, 2.2, 0.0)
        x = base_sample("weibull", 10_000, params, seed=7)
        stat = kstest(x, lambda t: base_cdf("weibull", t, params)).pvalue
        assert stat > 0.01
