"""Checks for the goodness-of-fit measures and the combined report.

Information criteria have closed forms; the EDF statistics are pinned at
hand-computable configurations; the KS statistic is compared against a
brute-force oracle; the report is pinned against frozen reference values for
the bearing dataset.
"""

import math

import numpy as np
import pytest

from genfit import chains, gof
from genfit.datasets import load_dataset
from genfit.family_transforms import family_cdf, family_log_pdf
from genfit.gof import (
    edf_statistics,
    full_report,
    information_criteria,
    ks_statistic,
    ks_test,
)
from genfit.mps_fit import SpacingContext, _start_theta, spacing_value

# frozen reference estimate for the bearing dataset under the
# Weibull-transformed Weibull model with location
BEARING_THETA = (0.9988519, 0.9708349, 0.8618143, 83.4125577, 147.1825435)


def brute_force_ks(u):
    """One-sided gap maxima by direct enumeration over all step edges."""
    u = np.sort(np.asarray(u, dtype=float))
    n = u.size
    best = 0.0
    for i, ui in enumerate(u, start=1):
        best = max(best, abs(i / n - ui), abs((i - 1) / n - ui))
    return best


class TestInformationCriteria:
    def test_reference_row_n10_k5(self):
        aic, caic, bic, hqic = information_criteria(-53.39375, 5, 10)
        assert aic == pytest.approx(116.7875, abs=1e-4)
        assert caic == pytest.approx(131.7875, abs=1e-4)
        assert bic == pytest.approx(118.3004, abs=1e-4)
        assert hqic == pytest.approx(115.1278, abs=1e-4)

    def test_reference_row_n20_k3(self):
        aic, caic, bic, hqic = information_criteria(-194.8966, 3, 20)
        assert aic == pytest.approx(395.7932, abs=1e-4)
        assert caic == pytest.approx(397.2932, abs=1e-4)
        assert bic == pytest.approx(398.7804, abs=1e-4)
        assert hqic == pytest.approx(396.3763, abs=1e-4)

    def test_zero_loglik_zero_k(self):
        aic, caic, bic, hqic = information_criteria(0.0, 0, 10)
        assert aic == 0.0
        assert caic == 0.0
        assert bic == 0.0
        assert hqic == 0.0

    def test_affine_in_loglik(self):
        base = information_criteria(-10.0, 3, 20)
        shifted = information_criteria(-11.0, 3, 20)
        for b, s in zip(base, shifted):
            assert s - b == pytest.approx(2.0, abs=1e-12)

    def test_caic_nan_for_tiny_n(self):
        _, caic, _, _ = information_criteria(-10.0, 5, 6)
        assert math.isnan(caic)


class TestEdfStatistics:
    def test_two_point_pin(self):
        # u = (1/4, 3/4) sits exactly on the (2i-1)/(2n) grid: CM = 1/24
        cm, ad, clamped = edf_statistics([0.25, 0.75])
        assert cm == pytest.approx(1.0 / 24.0, abs=1e-15)
        assert not clamped

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_staircase_minimum(self, n):
        # the (2i-1)/(2n) staircase minimizes CM at exactly 1/(12n)
        u = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        cm, ad, _ = edf_statistics(u)
        assert cm == pytest.approx(1.0 / (12.0 * n), abs=1e-14)
        assert ks_statistic(u) == pytest.approx(1.0 / (2.0 * n), abs=1e-14)

    def test_cm_lower_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            u = rng.uniform(size=rng.integers(2, 30))
            cm, _, _ = edf_statistics(u)
            assert cm >= 1.0 / (12.0 * u.size) - 1e-14

    def test_clamp_flag(self):
        cm, ad, clamped = edf_statistics([0.0, 0.5, 1.0])
        assert clamped
        assert np.isfinite(cm) and np.isfinite(ad)

    def test_bearing_reference(self):
        data = load_dataset("bearing")
        from genfit.family_transforms import family_cdf

        u = family_cdf("weibullg", "weibull", np.sort(data), BEARING_THETA)
        cm, ad, _ = edf_statistics(u)
        assert cm == pytest.approx(0.06325825, abs=1e-3)
        assert ad == pytest.approx(0.3809677, abs=1e-3)
        assert ks_statistic(u) == pytest.approx(0.2042573, abs=1e-3)


class TestKs:
    def test_brute_force_agreement(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            u = rng.uniform(size=rng.integers(1, 40))
            assert ks_statistic(u) == pytest.approx(brute_force_ks(u), abs=1e-14)

    def test_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            u = rng.uniform(size=rng.integers(2, 30))
            d = ks_statistic(u)
            assert 1.0 / (2.0 * u.size) - 1e-14 <= d <= 1.0

    def test_p_value(self):
        u = np.linspace(0.05, 0.95, 10)
        d, p = ks_test(u)
        assert 0.0 <= p <= 1.0
        # a grossly misfit sample gives a smaller p than a staircase sample
        _, p_bad = ks_test(np.full(10, 0.99))
        assert p_bad < p


class TestFullReport:
    def test_bearing_reference(self):
        data = load_dataset("bearing")
        rep = full_report(data, "weibullg", "weibull", BEARING_THETA)
        assert rep.aic == pytest.approx(116.7875, abs=1e-3)
        assert rep.caic == pytest.approx(131.7875, abs=1e-3)
        assert rep.bic == pytest.approx(118.3004, abs=1e-3)
        assert rep.hqic == pytest.approx(115.1278, abs=1e-3)
        assert rep.loglik == pytest.approx(-53.39375, abs=1e-3)
        assert rep.ks_stat == pytest.approx(0.2042573, abs=1e-3)
        assert rep.chi_critical == pytest.approx(18.30704, abs=1e-4)
        assert rep.chi_statistic == pytest.approx(12.88606, abs=0.05)
        assert rep.moran == pytest.approx(31.37394, abs=0.05)
        assert not rep.edf_clamped

    def test_location_off(self):
        data = load_dataset("pollution")
        rep = full_report(
            data, "mog", "exp", (1.7785378951, 0.0001715355), location=False
        )
        assert rep.aic == pytest.approx(398.5125, abs=0.01)

    def test_moran_matches_context(self):
        data = np.array([0.5, 1.1, 2.3, 3.0])
        rep = full_report(data, "expg", "exp", (1.0, 1.0, 0.0))
        assert np.isfinite(rep.moran)
        assert 0.0 <= rep.chi_p <= 1.0
        assert 0.0 <= rep.ks_p <= 1.0

    @pytest.mark.parametrize("name, family, base", [
        ("bearing", "weibullg", "weibull"),
        ("earthquake", "kumg", "birnbaum-saunders"),  # ties
    ])
    def test_one_resolve_and_one_pass_each(self, monkeypatch, name, family, base):
        data = load_dataset(name)
        ctx = SpacingContext(data, family, base)
        theta = tuple(_start_theta(ctx))
        # the measures from their public functions, each with its own pass
        u = family_cdf(family, base, ctx.data, theta)
        want = (float(np.sum(family_log_pdf(family, base, ctx.data, theta))), *edf_statistics(u), *ks_test(u),
                -ctx.m * spacing_value(theta, ctx))
        calls = {"resolve": 0, "cdf": 0, "log_density": 0}

        def counted(key, fn):
            def run(*args):
                calls[key] += 1
                return fn(*args)
            return run

        monkeypatch.setattr(chains.Model, "resolve", counted("resolve", chains.Model.resolve))
        monkeypatch.setattr(gof, "_cdf", counted("cdf", chains._cdf))
        monkeypatch.setattr(gof, "_log_density", counted("log_density", chains._log_density))
        rep = full_report(data, family, base, theta)
        assert calls == {"resolve": 1, "cdf": 1, "log_density": 1}
        got = (rep.loglik, rep.cm, rep.ad, rep.edf_clamped, rep.ks_stat, rep.ks_p, rep.moran)
        assert got == want and math.isfinite(rep.moran)
