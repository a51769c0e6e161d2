"""Oracle-backed checks for the special-function kernel.

All [frozen] constants below were computed by independent oracles (adaptive
quadrature of the defining integrals, long bisection on the forward map,
direct series summation) and pasted in, so these tests do not depend on the
implementation they exercise.
"""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from genfit.special_functions import (
    chi_square_cdf,
    chi_square_quantile,
    inv_reg_inc_beta,
    inv_reg_inc_gamma_lower,
    inv_reg_inc_gamma_upper_from_log,
    kolmogorov_sf,
    log_beta,
    log_gamma,
    reg_inc_beta,
    reg_inc_gamma_lower,
    reg_inc_gamma_upper,
    std_normal_cdf,
    std_normal_quantile,
    std_normal_quantile_from_log,
)

# frozen oracle values
P_3_AT_2 = 0.3233235838169366  # quadrature of y^2 e^-y / Gamma(3) over [0, 2]
I_03_2_5 = 0.5798249999999999  # quadrature of y(1-y)^4 / B(2,5) over [0, 0.3]
INV_BETA_09_3_4 = 0.6668056134721849  # bisection root of I_x(3,4) = 0.9
INV_GAMMA_095_5 = 9.153519026637571  # bisection root of P(5,x) = 0.95
KOLMOGOROV_AT_1 = 0.26999967167735456  # direct series summation

pos = st.floats(min_value=0.1, max_value=50.0)
unit = st.floats(min_value=1e-4, max_value=1.0 - 1e-4)


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == 0.0

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)

    def test_factorial(self):
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.0)

    def test_log_beta_consistency(self):
        assert log_beta(2.0, 5.0) == pytest.approx(math.log(1.0 / 30.0), rel=1e-13)


class TestIncompleteGamma:
    def test_empty_integral(self):
        assert reg_inc_gamma_lower(0.0, 3.0) == 0.0

    def test_exponential_cdf(self):
        x = np.array([0.1, 1.0, 4.0])
        np.testing.assert_allclose(
            reg_inc_gamma_lower(x, 1.0), -np.expm1(-x), atol=1e-14
        )

    def test_quadrature_oracle(self):
        assert reg_inc_gamma_lower(2.0, 3.0) == pytest.approx(P_3_AT_2, abs=1e-12)

    def test_upper_complements(self):
        x = np.linspace(0.1, 10, 25)
        np.testing.assert_allclose(
            reg_inc_gamma_lower(x, 2.5) + reg_inc_gamma_upper(x, 2.5), 1.0, atol=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_inc_gamma_lower(1.0, -1.0)
        with pytest.raises(ValueError):
            reg_inc_gamma_lower(-1.0, 1.0)

    @given(a=pos, grid=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=20))
    def test_monotone(self, a, grid):
        x = np.sort(np.asarray(grid))
        vals = reg_inc_gamma_lower(x, a)
        assert np.all(np.diff(vals) >= -1e-15)


class TestIncompleteBeta:
    def test_uniform(self):
        x = np.array([0.0, 0.25, 0.5, 1.0])
        np.testing.assert_allclose(reg_inc_beta(x, 1.0, 1.0), x, atol=1e-14)

    def test_quadrature_oracle(self):
        assert reg_inc_beta(0.3, 2.0, 5.0) == pytest.approx(I_03_2_5, abs=1e-12)

    def test_full_integral(self):
        assert reg_inc_beta(1.0, 3.0, 7.0) == 1.0

    @given(x=unit, a=pos, b=pos)
    @settings(max_examples=200)
    def test_symmetry(self, x, a, b):
        lhs = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
        assert lhs == pytest.approx(1.0, abs=1e-12)

    @given(a=pos, b=pos, grid=st.lists(unit, min_size=2, max_size=20))
    def test_monotone(self, a, b, grid):
        x = np.sort(np.asarray(grid))
        vals = reg_inc_beta(x, a, b)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_inc_beta(1.5, 1.0, 1.0)


class TestInverses:
    def test_inv_beta_uniform(self):
        assert inv_reg_inc_beta(0.42, 1.0, 1.0) == pytest.approx(0.42, abs=1e-12)

    def test_inv_beta_symmetry_point(self):
        assert inv_reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_inv_beta_bisection_oracle(self):
        assert inv_reg_inc_beta(0.9, 3.0, 4.0) == pytest.approx(
            INV_BETA_09_3_4, abs=1e-10
        )

    def test_inv_gamma_exponential(self):
        p = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(
            inv_reg_inc_gamma_lower(p, 1.0), -np.log1p(-p), atol=1e-12
        )

    def test_inv_gamma_zero(self):
        assert inv_reg_inc_gamma_lower(0.0, 3.0) == 0.0

    def test_inv_gamma_bisection_oracle(self):
        assert inv_reg_inc_gamma_lower(0.95, 5.0) == pytest.approx(
            INV_GAMMA_095_5, abs=1e-8
        )

    @given(p=unit, a=pos)
    @settings(max_examples=250)
    def test_gamma_round_trip(self, p, a):
        x = inv_reg_inc_gamma_lower(p, a)
        assert reg_inc_gamma_lower(x, a) == pytest.approx(p, abs=1e-8)

    @given(p=unit, a=pos, b=pos)
    # I_x moves by ~1e-7 per ulp of x here, so no double is within 1e-8 of p
    @example(p=0.9609375, a=0.125, b=0.1015625)
    @settings(max_examples=250)
    def test_beta_round_trip(self, p, a, b):
        x = inv_reg_inc_beta(p, a, b)
        # small b collapses the complement like (1-p)^(1/b); once that is
        # within a few ulp of x = 1 the round trip is unrepresentable
        assume(1e-12 < x < 1.0 - 1e-12)
        miss = abs(reg_inc_beta(x, a, b) - p)
        if miss > 1e-8:
            # too steep for abs=1e-8 in doubles: x must then be the best double
            for neighbour in (np.nextafter(x, 0.0), np.nextafter(x, 1.0)):
                assert abs(reg_inc_beta(neighbour, a, b) - p) >= miss

    @given(q=unit, a=pos)
    def test_upper_round_trip(self, q, a):
        x = inv_reg_inc_gamma_upper_from_log(-math.log(q), a)
        assert reg_inc_gamma_upper(x, a) == pytest.approx(q, abs=1e-8)

    def test_upper_from_log_matches_plain(self):
        for a in (0.5, 1.3, 4.0):
            for l in (0.1, 5.0, 100.0, 500.0):
                x1 = inv_reg_inc_gamma_upper_from_log(l, a)
                x2 = scipy.special.gammainccinv(a, math.exp(-l))
                assert x1 == pytest.approx(x2, rel=1e-10)

    def test_upper_from_log_deep_tail(self):
        # past double underflow the inverse must stay finite and monotone
        l = np.array([700.0, 2000.0, 1e5])
        x = inv_reg_inc_gamma_upper_from_log(l, 2.5)
        assert np.all(np.isfinite(x))
        assert np.all(np.diff(x) > 0)


class TestNormal:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_quantile(0.5) == 0.0

    def test_975(self):
        assert std_normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)

    @given(z=st.floats(-8, 8))
    def test_reflection(self, z):
        assert std_normal_cdf(-z) == pytest.approx(1.0 - std_normal_cdf(z), abs=1e-14)

    @given(p=unit)
    def test_round_trip(self, p):
        assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-10)

    def test_quantile_from_log_deep(self):
        # agrees with the plain quantile where both are representable
        for lp in (-0.5, -5.0, -50.0):
            assert std_normal_quantile_from_log(lp) == pytest.approx(
                std_normal_quantile(math.exp(lp)), rel=1e-12
            )
        # and stays finite far past underflow
        assert np.isfinite(std_normal_quantile_from_log(-1e6))


class TestChiSquare:
    def test_critical_value_df10(self):
        assert chi_square_quantile(0.95, 10) == pytest.approx(18.30704, abs=1e-4)

    def test_critical_value_df20(self):
        assert chi_square_quantile(0.95, 20) == pytest.approx(31.41043, abs=1e-4)

    def test_exponential_median(self):
        assert chi_square_quantile(0.5, 2) == pytest.approx(2.0 * math.log(2.0), abs=1e-10)

    @given(p=unit, df=st.floats(0.5, 60))
    def test_round_trip(self, p, df):
        assert chi_square_cdf(chi_square_quantile(p, df), df) == pytest.approx(
            p, abs=1e-8
        )


class TestKolmogorov:
    def test_limit_at_zero(self):
        assert kolmogorov_sf(1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_one_term_dominance(self):
        lam = 3.0
        assert kolmogorov_sf(lam) == pytest.approx(2.0 * math.exp(-2.0 * lam * lam), rel=1e-6)

    def test_series_oracle(self):
        assert kolmogorov_sf(1.0) == pytest.approx(KOLMOGOROV_AT_1, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            kolmogorov_sf(-0.1)
