"""Oracle-backed checks for the special functions the kernels call.

The base and family kernels call ``scipy.special`` directly, in its argument
order: ``betainc(a, b, x)`` is I_x(a, b) and ``gammainc(a, x)`` is P(a, x).
These tests pin those conventions, the regularization and the NaN that the
non-finite rule relies on, as well as the chi-square pair in ``mps_fit`` and
the inverse that ``special_functions`` keeps.

All [frozen] constants below were computed by independent oracles (adaptive
quadrature of the defining integrals, long bisection on the forward map,
direct series summation) and pasted in, so these tests do not depend on the
implementation they exercise.
"""

import math

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from genfit.family_transforms import family_log_pdf, family_quantile
from genfit.mps_fit import chi_square_cdf, chi_square_quantile
from genfit.special_functions import _log_q_cf, inv_reg_inc_gamma_upper_from_log

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
        assert sc.gammaln(1.0) == 0.0

    def test_at_half(self):
        assert sc.gammaln(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)

    def test_factorial(self):
        assert sc.gammaln(10.0) == pytest.approx(math.log(362880.0), rel=1e-13)

    def test_log_beta_consistency(self):
        assert sc.betaln(2.0, 5.0) == pytest.approx(math.log(1.0 / 30.0), rel=1e-13)


class TestIncompleteGamma:
    def test_empty_integral(self):
        assert sc.gammainc(3.0, 0.0) == 0.0

    def test_exponential_cdf(self):
        x = np.array([0.1, 1.0, 4.0])
        np.testing.assert_allclose(
            sc.gammainc(1.0, x), -np.expm1(-x), atol=1e-14
        )

    def test_quadrature_oracle(self):
        assert sc.gammainc(3.0, 2.0) == pytest.approx(P_3_AT_2, abs=1e-12)

    def test_upper_complements(self):
        x = np.linspace(0.1, 10, 25)
        np.testing.assert_allclose(
            sc.gammainc(2.5, x) + sc.gammaincc(2.5, x), 1.0, atol=1e-12
        )

    def test_domain(self):
        # NaN, not an exception: the non-finite rule passes it on
        assert np.isnan(sc.gammainc(-1.0, 1.0))
        assert np.isnan(sc.gammainc(1.0, -1.0))

    @given(a=pos, grid=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=20))
    def test_monotone(self, a, grid):
        x = np.sort(np.asarray(grid))
        vals = sc.gammainc(a, x)
        assert np.all(np.diff(vals) >= -1e-15)


class TestIncompleteBeta:
    def test_uniform(self):
        x = np.array([0.0, 0.25, 0.5, 1.0])
        np.testing.assert_allclose(sc.betainc(1.0, 1.0, x), x, atol=1e-14)

    def test_quadrature_oracle(self):
        assert sc.betainc(2.0, 5.0, 0.3) == pytest.approx(I_03_2_5, abs=1e-12)

    def test_full_integral(self):
        assert sc.betainc(3.0, 7.0, 1.0) == 1.0

    @given(x=unit, a=pos, b=pos)
    @settings(max_examples=200)
    def test_symmetry(self, x, a, b):
        lhs = sc.betainc(a, b, x) + sc.betainc(b, a, 1.0 - x)
        assert lhs == pytest.approx(1.0, abs=1e-12)

    @given(a=pos, b=pos, grid=st.lists(unit, min_size=2, max_size=20))
    def test_monotone(self, a, b, grid):
        x = np.sort(np.asarray(grid))
        vals = sc.betainc(a, b, x)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_domain(self):
        # NaN, not an exception: the non-finite rule passes it on
        assert np.isnan(sc.betainc(1.0, 1.0, 1.5))


class TestInverses:
    def test_inv_beta_uniform(self):
        assert sc.betaincinv(1.0, 1.0, 0.42) == pytest.approx(0.42, abs=1e-12)

    def test_inv_beta_symmetry_point(self):
        assert sc.betaincinv(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_inv_beta_bisection_oracle(self):
        assert sc.betaincinv(3.0, 4.0, 0.9) == pytest.approx(
            INV_BETA_09_3_4, abs=1e-10
        )

    def test_inv_gamma_exponential(self):
        p = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(
            sc.gammaincinv(1.0, p), -np.log1p(-p), atol=1e-12
        )

    def test_inv_gamma_zero(self):
        assert sc.gammaincinv(3.0, 0.0) == 0.0

    def test_inv_gamma_bisection_oracle(self):
        assert sc.gammaincinv(5.0, 0.95) == pytest.approx(
            INV_GAMMA_095_5, abs=1e-8
        )

    @given(p=unit, a=pos)
    @settings(max_examples=250)
    def test_gamma_round_trip(self, p, a):
        x = sc.gammaincinv(a, p)
        assert sc.gammainc(a, x) == pytest.approx(p, abs=1e-8)

    @given(p=unit, a=pos, b=pos)
    # I_x moves by ~1e-7 per ulp of x here, so no double is within 1e-8 of p
    @example(p=0.9609375, a=0.125, b=0.1015625)
    @settings(max_examples=250)
    def test_beta_round_trip(self, p, a, b):
        x = sc.betaincinv(a, b, p)
        # small b collapses the complement like (1-p)^(1/b); once that is
        # within a few ulp of x = 1 the round trip is unrepresentable
        assume(1e-12 < x < 1.0 - 1e-12)
        miss = abs(sc.betainc(a, b, x) - p)
        if miss > 1e-8:
            # too steep for abs=1e-8 in doubles: x must then be the best double
            for neighbour in (np.nextafter(x, 0.0), np.nextafter(x, 1.0)):
                assert abs(sc.betainc(a, b, neighbour) - p) >= miss

    @given(q=unit, a=pos)
    def test_upper_round_trip(self, q, a):
        x = inv_reg_inc_gamma_upper_from_log(-math.log(q), a)
        assert sc.gammaincc(a, x) == pytest.approx(q, abs=1e-8)

    def test_upper_from_log_matches_plain(self):
        for a in (0.5, 1.3, 4.0):
            for l in (0.1, 5.0, 100.0, 500.0):
                x1 = inv_reg_inc_gamma_upper_from_log(l, a)
                x2 = sc.gammainccinv(a, math.exp(-l))
                assert x1 == pytest.approx(x2, rel=1e-10)

    def test_upper_from_log_deep_tail(self):
        # past double underflow the inverse must stay finite and monotone
        l = np.array([700.0, 2000.0, 1e5])
        x = inv_reg_inc_gamma_upper_from_log(l, 2.5)
        assert np.all(np.isfinite(x))
        assert np.all(np.diff(x) > 0)


class TestElementByElement:
    """The gamma solvers stop each element on its own criterion, so an
    element of a call equals the same call on that element alone."""

    @staticmethod
    def _each_alone(fn, *args):
        got = fn(*args)
        alone = [fn(*(a[i : i + 1] for a in args))[0] for i in range(got.size)]
        np.testing.assert_array_equal(got, alone)

    def test_upper_inverse_from_log(self):
        rng = np.random.default_rng(5)
        self._each_alone(inv_reg_inc_gamma_upper_from_log, rng.uniform(600.0, 2000.0, 200), rng.uniform(0.3, 2.0, 200))

    def test_continued_fraction(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0.3, 2.0, 200)
        self._each_alone(_log_q_cf, a + 1.0 + 10.0 ** rng.uniform(0.0, 6.0, 200), a)

    def test_upper_quantile(self):
        q = 10.0 ** -np.random.default_rng(7).uniform(0.0, 320.0, 100)
        self._each_alone(lambda p: family_quantile("loggammag1", "gamma", p, (1.13, 1.65, 1.82, 2.8, 0.5),
                                                   lower_tail=False), q)

    def test_far_log_pdf(self):
        x = 0.5 + 10.0 ** np.random.default_rng(8).uniform(0.0, 6.0, 100)
        self._each_alone(lambda x: family_log_pdf("gxlogisticg", "gamma", x, (1.67, 2.85, 2.52, 0.5)), x)


class TestNormal:
    def test_center(self):
        assert sc.ndtr(0.0) == 0.5
        assert sc.ndtri(0.5) == 0.0

    def test_975(self):
        assert sc.ndtr(1.959963985) == pytest.approx(0.975, abs=1e-9)

    @given(z=st.floats(-8, 8))
    def test_reflection(self, z):
        assert sc.ndtr(-z) == pytest.approx(1.0 - sc.ndtr(z), abs=1e-14)

    @given(p=unit)
    def test_round_trip(self, p):
        assert sc.ndtr(sc.ndtri(p)) == pytest.approx(p, abs=1e-10)

    def test_quantile_from_log_deep(self):
        # agrees with the plain quantile where both are representable
        for lp in (-0.5, -5.0, -50.0):
            assert sc.ndtri_exp(lp) == pytest.approx(
                sc.ndtri(math.exp(lp)), rel=1e-12
            )
        # and stays finite far past underflow
        assert np.isfinite(sc.ndtri_exp(-1e6))


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
        assert sc.kolmogorov(1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_one_term_dominance(self):
        lam = 3.0
        assert sc.kolmogorov(lam) == pytest.approx(2.0 * math.exp(-2.0 * lam * lam), rel=1e-6)

    def test_series_oracle(self):
        assert sc.kolmogorov(1.0) == pytest.approx(KOLMOGOROV_AT_1, abs=1e-12)
