"""Checks for the spacing objective, the fit driver, and Moran's statistic.

Reference values for the bundled datasets are frozen from independently
verified analyses of the same models; everything else is closed-form or a
structural property of the objective.
"""

import math
import warnings

import numpy as np
import pytest

from genfit import mps_fit
from genfit.base_distributions import BASE_DISTRIBUTIONS
from genfit.datasets import load_dataset
from genfit.family_transforms import FAMILIES, family_cdf, family_log_pdf, h_forward, log_h_prime
from genfit.mps_fit import (
    EULER_MASCHERONI,
    SpacingContext,
    _start_theta,
    _starts,
    _terms,
    fit,
    moran_chi_square_test,
    moran_moments,
    spacing_value,
    to_free,
)
from genfit.optimizers import OptimizerConfig

# frozen reference estimate for the bearing dataset under the
# Weibull-transformed Weibull model with location
BEARING_THETA = (0.9988519, 0.9708349, 0.8618143, 83.4125577, 147.1825435)
BEARING_MORAN = 31.37394


class TestSpacingContext:
    def test_sorts_data(self):
        ctx = SpacingContext(np.array([3.0, 1.0, 2.0]), "expg", "weibull")
        np.testing.assert_array_equal(ctx.data, [1.0, 2.0, 3.0])

    def test_counts(self):
        ctx = SpacingContext(np.arange(1.0, 6.0), "kumg", "weibull", location=True)
        assert (ctx.n, ctx.m, ctx.k) == (5, 6, 5)

    def test_rejects_single_observation(self):
        with pytest.raises(ValueError):
            SpacingContext(np.array([1.0]), "expg", "weibull")

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SpacingContext(np.array([1.0, np.nan]), "expg", "weibull")

    def test_rejects_constant_sample_with_location(self):
        # no spread for mu to sit below x_(1): the cause is named up front
        with pytest.raises(ValueError, match=r"must not all be equal \(every one is 2.0\)"):
            SpacingContext(np.array([2.0, 2.0, 2.0]), "mog", "exp")
        # with the location off S has no maximum, as the ties' log-density
        # grows without bound, so the same data are refused too
        with pytest.raises(ValueError, match=r"must not all be equal \(every one is 2.0\)"):
            SpacingContext(np.array([2.0, 2.0, 2.0]), "mog", "exp", location=False)

    def test_tie_mask(self):
        ctx = SpacingContext(np.array([1.0, 2.0, 2.0, 3.0]), "expg", "weibull")
        np.testing.assert_array_equal(ctx.tied, [2])


class TestSpacingValue:
    def test_equal_thirds(self):
        # data placed at the 1/3 and 2/3 quantiles of the fitted cdf: all
        # three spacings equal 1/3, so S = ln(1/3)
        theta = (1.0, 1.0, 0.0)  # identity transform over a unit-rate exponential
        x = -np.log1p(-np.array([1.0 / 3.0, 2.0 / 3.0]))
        ctx = SpacingContext(x, "expg", "exp")
        assert spacing_value(theta, ctx) == pytest.approx(math.log(1.0 / 3.0), abs=1e-12)

    def test_bearing_reference_value(self):
        data = load_dataset("bearing")
        ctx = SpacingContext(data, "weibullg", "weibull")
        # the reference estimate is printed to 7 decimals, so its objective
        # sits a hair above the true optimum
        s = spacing_value(BEARING_THETA, ctx)
        assert -ctx.m * s == pytest.approx(BEARING_MORAN, abs=0.05)

    def test_upper_bound(self):
        # S is maximized by equal spacings, so S <= -ln m always
        rng = np.random.default_rng(21)
        for _ in range(50):
            theta = (rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), 0.0)
            x = rng.uniform(0.1, 5.0, size=rng.integers(2, 12))
            ctx = SpacingContext(x, "expg", "exp")
            s = spacing_value(theta, ctx)
            assert s <= -math.log(ctx.m) + 1e-12

    def test_spacings_partition_unity(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            theta = (rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), 0.0)
            x = np.unique(rng.uniform(0.1, 5.0, size=10))
            ctx = SpacingContext(x, "mog", "exp")
            terms = _terms(*ctx.model.resolve(theta), ctx)
            assert np.sum(np.exp(terms)) == pytest.approx(1.0, abs=1e-12)

    def test_order_invariance(self):
        theta = (1.3, 1.1, 0.9, 0.0)
        x = np.array([0.5, 2.0, 1.1, 0.8])
        a = spacing_value(theta, SpacingContext(x, "kumg", "exp"))
        b = spacing_value(theta, SpacingContext(x[::-1], "kumg", "exp"))
        assert a == b

    def test_ties_stay_finite(self):
        theta = (1.3, 1.1, 0.9, 0.0)
        x = np.array([0.5, 1.0, 1.0, 2.0])
        s = spacing_value(theta, SpacingContext(x, "kumg", "exp"))
        assert np.isfinite(s)

    def test_infeasible_is_minus_inf(self):
        # mu above the smallest observation leaves a zero spacing
        ctx = SpacingContext(np.array([1.0, 2.0]), "expg", "weibull")
        assert spacing_value((1.0, 1.0, 1.0, 1.5), ctx) == -math.inf

    def test_wrong_length_raises(self):
        # a count error is the caller's, not an infeasible point
        ctx = SpacingContext([1, 2, 3], "expg", "weibull")
        with pytest.raises(ValueError, match=r"expg x weibull expects 4 parameters \(mu last\), got 3"):
            spacing_value((1.0, 1.0, 1.0), ctx)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "out"])
    @pytest.mark.parametrize("i", [0, 1, 3], ids=["a", "alpha", "mu"])
    def test_bad_coordinate_is_minus_inf(self, monkeypatch, i, value):
        # a NaN, an infinite or an out-of-domain coordinate (for mu, one above
        # x_(1)) reads -inf as a single point and as a row of a stack.  The
        # free-to-natural map carries a NaN free coordinate to a NaN natural
        # one, and clips the rest into their domains; a stack whose rows are
        # theta itself, once that map is the identity, reaches them all
        ctx = SpacingContext(load_dataset("bearing"), "expg", "weibull")
        theta = _start_theta(ctx)
        bad = theta.copy()
        bad[i] = (ctx.data[0] + 1.0 if i == 3 else -1.0) if value == "out" else float(value)
        assert spacing_value(bad, ctx) == -math.inf
        if value == "nan":
            psi = to_free(ctx, theta)
            psi[i] = math.nan
            assert mps_fit._spacing_rows(psi[None], ctx)[0] == -math.inf
        monkeypatch.setattr(mps_fit, "_natural", lambda psi, ctx: psi)
        got = mps_fit._spacing_rows(np.vstack([theta, bad]), ctx)
        assert got[0] == spacing_value(theta, ctx) > -math.inf
        assert got[1] == -math.inf

    @pytest.mark.parametrize(
        "family,base,theta",
        [
            # the seed-0 Nelder-Mead fit of the earthquake reference model
            (
                "kumg",
                "birnbaum-saunders",
                (0.007115681003680146, 1.2542493818157583, 0.29083540526400514,
                 618.3569920294735, -4.565756123898723),
            ),
            # log-normal has no closed-form hazard, so gxlogisticg's tie
            # density reads -ln(1 - u) from the base tail
            ("gxlogisticg", "log-normal", (1.5, 3.1, 1.2, 0.1)),
        ],
    )
    def test_terms_match_public_functions(self, family, base, theta):
        # earthquake has 29 ties; the objective's one tail pass must give
        # exactly what the public cdf and log-density give
        ctx = SpacingContext(load_dataset("earthquake"), family, base)
        terms = _terms(*ctx.model.resolve(theta), ctx)
        tied = ctx.tied
        untied = np.setdiff1d(np.arange(ctx.m), tied)
        cdf = np.concatenate([[0.0], family_cdf(family, base, ctx.data, theta), [1.0]])
        assert tied.size == 29
        assert np.all(np.isfinite(terms))
        with np.errstate(divide="ignore"):  # the zero spacings at the ties
            np.testing.assert_array_equal(terms[untied], np.log(np.diff(cdf))[untied])
        np.testing.assert_array_equal(terms[tied], family_log_pdf(family, base, ctx.data[tied], theta))

    @pytest.mark.parametrize("family,base", [("kumg", "birnbaum-saunders"), ("gxlogisticg", "log-normal"),
                                             ("mog", "exp"), ("weibullg", "weibull")])
    def test_one_walk_equals_two(self, monkeypatch, family, base):
        # the tie terms from the one walk and from a second walk over the
        # tied points, which _terms picks between by cost, agree bit for bit,
        # on one row and on a stack of (B, 1) columns
        ctx = SpacingContext(load_dataset("earthquake"), family, base)
        theta = _start_theta(ctx)
        stack = [c * np.array([[1.0], [1.001], [0.999]]) for c in theta]
        for steps, mu in (ctx.model.resolve(theta), (ctx.model.steps(stack), stack[-1])):
            monkeypatch.setattr(mps_fit, "_ONE_WALK", math.inf)
            one = _terms(steps, mu, ctx)
            monkeypatch.setattr(mps_fit, "_ONE_WALK", -math.inf)
            assert _terms(steps, mu, ctx).tobytes() == one.tobytes()

    def test_nan_survival_is_infeasible(self):
        # a point seed-0 Nelder-Mead reaches: the F base's beta cdf gives NaN
        # at a shape of ~5e303, the NaN stays NaN through the chain, and the
        # objective reads it as an infeasible point
        ctx = SpacingContext(load_dataset("bearing"), "gammag", "f")
        theta = (3.748759707120287, 1.0142320547350045e304, 2.2482733042146714, 150.30326603818773)
        assert spacing_value(theta, ctx) == -math.inf


class TestSpacingRows:
    @pytest.mark.parametrize("name,location", [
        pytest.param(name, location, id=name if location else f"{name}-location-off")
        for location in (True, False) for name in ("bearing", "pollution", "earthquake")])
    def test_rows_equal_single_calls(self, name, location):
        # every composition at its moment start, the +-h stack of the
        # gradient there, a jittered row and a row at the +-700 clip: the
        # batch gives each row the single call's bits, -inf included, and
        # lets no floating-point warning escape; all three datasets are
        # positive, so each also runs with the location off.  The rows the
        # one-row path masks come last: a NaN row, and with the location on
        # mu = x_(1) - e^-700, which rounds onto x_(1), so S = -inf; for
        # gtransg, b = tanh(+-40), which rounds to +-1, out of its domain
        data = load_dataset(name)
        for i, family in enumerate(sorted(FAMILIES)):
            for j, base in enumerate(sorted(BASE_DISTRIBUTIONS)):
                ctx = SpacingContext(data, family, base, location)
                x = to_free(ctx, _start_theta(ctx))
                h = np.diag(np.maximum(1e-7, 1e-7 * np.abs(x)))
                rng = np.random.default_rng([i, j])
                masked = [np.full(x.size, np.nan)]
                if location:
                    masked.append(np.append(x[:-1], -700.0))
                if family == "gtransg":
                    masked += [np.where(np.arange(x.size) == 1, b, x) for b in (40.0, -40.0)]
                psi_rows = np.vstack([x, x + h, x - h, x + rng.normal(scale=0.3, size=x.size),
                                      np.where(rng.uniform(size=x.size) < 0.5, -700.0, 700.0), *masked])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = mps_fit._spacing_rows(psi_rows, ctx)
                want = [mps_fit._spacing_rows(psi[None], ctx)[0] for psi in psi_rows]
                np.testing.assert_array_equal(got, want, err_msg=f"{family} x {base}")
                assert want[-len(masked):] == [-math.inf] * len(masked)

    def test_weibullextg_row_at_a_tiny_a(self):
        # weibullextg at a = 1e-3, b = 200, where a^-b = 1e600 overflows: its
        # chain takes a t^(1/b), S is finite, and the stack holding that row
        # gives each row the single call's bits
        ctx = SpacingContext(load_dataset("bearing"), "weibullextg", "exp")
        start = _start_theta(ctx)
        x, row = to_free(ctx, start), to_free(ctx, (1e-3, 200.0, *start[2:]))
        psi_rows = np.vstack([x, row, x + 0.1])
        got = mps_fit._spacing_rows(psi_rows, ctx)
        assert got.tobytes() == np.array([mps_fit._spacing_rows(psi[None], ctx)[0] for psi in psi_rows]).tobytes()
        assert np.isfinite(got[1])


class TestReparameterization:
    @pytest.mark.parametrize(
        "family,base,theta",
        [
            ("kumg", "weibull", (0.7, 2.0, 1.3, 0.8, 0.4)),
            ("gexppg", "exp", (1.5, 0.25, 2.0, 0.1)),
            ("gtransg", "log-normal", (1.2, -0.4, 0.3, 1.1, 0.2)),
        ],
    )
    def test_round_trip(self, family, base, theta):
        ctx = SpacingContext(np.array([0.5, 1.0, 2.0]), family, base)
        back = mps_fit._natural(to_free(ctx, theta)[None], ctx)[0]
        np.testing.assert_allclose(back, theta, rtol=1e-12)

    def test_location_constraint(self):
        # any free value maps to mu strictly below the smallest observation
        ctx = SpacingContext(np.array([1.0, 2.0]), "expg", "weibull")
        for psi in (-5.0, 0.0, 5.0):
            theta = mps_fit._natural(np.array([0.0, 0.0, 0.0, psi])[None], ctx)[0]
            assert theta[-1] < 1.0

    def test_objective_matches_value(self):
        ctx = SpacingContext(np.array([0.5, 1.0, 2.0]), "expg", "weibull")
        theta = (1.3, 1.1, 0.9, 0.2)
        assert mps_fit._spacing_rows(to_free(ctx, theta)[None], ctx)[0] == pytest.approx(
            spacing_value(theta, ctx), rel=1e-12
        )


class TestFit:
    def test_bearing_not_worse_than_reference(self):
        data = load_dataset("bearing")
        ctx = SpacingContext(data, "weibullg", "weibull")
        res = fit(ctx, OptimizerConfig(seed=0))
        assert res.s_opt >= spacing_value(BEARING_THETA, ctx) - 1e-6
        assert res.moran == pytest.approx(BEARING_MORAN, abs=0.05)
        assert res.theta_hat[-1] < data.min()
        assert res.moran == pytest.approx(-ctx.m * res.s_opt, rel=1e-12)
        assert res.k == 5

    @pytest.mark.parametrize("method", ["nelder-mead", "bfgs", "cg"])
    def test_one_objective_call_per_counted_evaluation(self, monkeypatch, method):
        # every point, a lone one too, goes through _spacing_rows; n_evals
        # counts each row
        calls = []
        rows = mps_fit._spacing_rows

        def counted_rows(psi_rows, ctx):
            calls.extend([1] * len(psi_rows))
            return rows(psi_rows, ctx)

        monkeypatch.setattr(mps_fit, "_spacing_rows", counted_rows)
        ctx = SpacingContext(load_dataset("bearing"), "weibullg", "weibull")
        res = fit(ctx, OptimizerConfig(method=method, seed=0, restarts=1))
        assert len(calls) == res.convergence.n_evals

    def test_infeasible_start_names_the_composition(self):
        ctx = SpacingContext(load_dataset("pollution"), "gammag2", "f")
        with pytest.raises(ValueError, match="infeasible starting point for gammag2 x f"):
            fit(ctx, OptimizerConfig(seed=0))

    def test_moment_matched_chisq_start_rescues_the_fit(self):
        # S is -inf at the moment start and at every sd fallback; the start
        # with mean and variance matched (mu0 = mean - var/2) is finite
        ctx = SpacingContext(load_dataset("pollution"), "expg", "chisq")
        s = [spacing_value(theta, ctx) for theta in _starts(ctx)]
        assert len(s) == 5 and not np.isfinite(s[:4]).any() and np.isfinite(s[4])
        res = fit(ctx, OptimizerConfig(seed=0, max_iter=50, restarts=0))
        assert np.isfinite(res.s_opt) and res.s_opt >= s[4]
        assert res.convergence.n_evals > 4

    def test_start_that_rounds_onto_the_first_point_is_skipped(self, monkeypatch):
        # sd/n = 4.9 is below half the spacing 16 of the doubles at 1e17, so
        # the moment start's mu0 is x_(1): it is skipped, not probed, and the
        # fit runs from the first fallback, x_(1) - sd
        data = np.array([1e17, 1.00000000000000016e17, 1.00000000000000032e17, 1.00000000000000048e17])
        ctx = SpacingContext(data, "mog", "exp")
        assert data[0] - np.std(data) / 4 == data[0]
        starts = list(_starts(ctx))
        assert len(starts) == 3 and all(theta[-1] < data[0] for theta in starts)
        assert starts[0][-1] == data[0] - np.std(data)
        calls = []
        rows = mps_fit._spacing_rows

        def counted_rows(psi_rows, ctx):
            calls.extend([1] * len(psi_rows))
            return rows(psi_rows, ctx)

        monkeypatch.setattr(mps_fit, "_spacing_rows", counted_rows)
        res = fit(ctx, OptimizerConfig(seed=0))
        assert res.convergence.converged
        assert res.s_opt == pytest.approx(-1.616802, abs=1e-6)
        assert res.theta_hat[-1] < data[0]
        assert len(calls) == res.convergence.n_evals

    def test_no_start_below_the_first_point_names_the_cause(self):
        # 16 sd is below half the spacing of the doubles at 1e17: every start
        # rounds onto x_(1), and none is probed
        ctx = SpacingContext(np.r_[np.full(1999, 1e17), 1e17 + 16.0], "mog", "exp")
        assert list(_starts(ctx)) == []
        with pytest.raises(ValueError, match=r"no start for mog x exp: .* below x_\(1\) = 1e\+17"):
            fit(ctx, OptimizerConfig(seed=0))
        with pytest.raises(ValueError, match="is not below x_"):
            _start_theta(ctx)

    @pytest.mark.parametrize("family,base", [("mog", "chisq"), ("gammag2", "gompertz")])
    def test_fallback_start_rescues_the_fit(self, monkeypatch, family, base):
        # S is -inf at the moment start; a start with mu0 further below x_(1)
        # is finite, and its probes count as evaluations
        calls = []
        rows = mps_fit._spacing_rows

        def counted_rows(psi_rows, ctx):
            calls.extend([1] * len(psi_rows))
            return rows(psi_rows, ctx)

        monkeypatch.setattr(mps_fit, "_spacing_rows", counted_rows)
        ctx = SpacingContext(load_dataset("bearing"), family, base)
        assert spacing_value(_start_theta(ctx), ctx) == -math.inf
        res = fit(ctx, OptimizerConfig(seed=0, restarts=0))
        assert np.isfinite(res.s_opt)
        assert np.all(np.isfinite(res.theta_hat))
        assert len(calls) == res.convergence.n_evals

    @pytest.mark.parametrize(
        "name,family,base",
        [("bearing", "weibullg", "weibull"), ("pollution", "mog", "exp"),
         ("earthquake", "kumg", "birnbaum-saunders")],
    )
    def test_reference_fits_keep_the_moment_start(self, name, family, base):
        ctx = SpacingContext(load_dataset(name), family, base)
        assert np.isfinite(spacing_value(_start_theta(ctx), ctx))

    @pytest.mark.parametrize("family", ["gammag2", "gmbetaexpg", "weibullextg"])
    def test_odds_families_start_at_half(self, family):
        # no identity point: the start has h(1/2) = 1/2 and, with two
        # parameters, h'(1/2) = 1
        ctx = SpacingContext(load_dataset("bearing"), family, "weibull")
        theta = _start_theta(ctx)
        induced = theta[: theta.size - 3]
        assert h_forward(family, 0.5, induced) == pytest.approx(0.5, abs=1e-7)
        if induced.size == 2:
            assert log_h_prime(family, 0.5, induced) == pytest.approx(0.0, abs=1e-6)

    def test_weibullextg_gamma_bearing_fits(self):
        ctx = SpacingContext(load_dataset("bearing"), "weibullextg", "gamma")
        res = fit(ctx, OptimizerConfig(seed=0, restarts=0))
        assert np.isfinite(res.s_opt)
        assert np.all(np.isfinite(res.theta_hat))

    def test_exp_rate_consistency(self):
        rng = np.random.default_rng(77)
        x = rng.exponential(scale=1.0 / 1.3, size=5000)
        ctx = SpacingContext(x, "expg", "exp", location=False)
        res = fit(ctx, OptimizerConfig(seed=1))
        a_hat, rate_hat = res.theta_hat
        assert 0.8 <= a_hat <= 1.25
        assert rate_hat == pytest.approx(1.3, rel=0.10)


class TestMoran:
    def test_moments_n10(self):
        mean, var = moran_moments(10)
        m = 11
        assert mean == pytest.approx(
            m * (math.log(m) + EULER_MASCHERONI) - 0.5 - 1.0 / (12 * m), abs=1e-12
        )
        assert mean == pytest.approx(32.219, abs=1e-3)
        assert var > 0

    def test_moments_invalid(self):
        with pytest.raises(ValueError):
            moran_moments(0)

    def test_bearing_chi_square(self):
        t = moran_chi_square_test(31.37394, n=10, k=5)
        assert t.statistic == pytest.approx(12.88606, abs=0.05)
        assert t.critical == pytest.approx(18.30704, abs=1e-4)
        assert t.p_value == pytest.approx(0.230112, abs=5e-3)
        assert t.df == 10

    def test_pollution_chi_square(self):
        t = moran_chi_square_test(78.72329, n=20, k=3)
        assert t.statistic == pytest.approx(28.18183, abs=0.05)
        assert t.critical == pytest.approx(31.41043, abs=1e-4)

    def test_statistic_increasing_in_moran(self):
        lo = moran_chi_square_test(30.0, n=10, k=5).statistic
        hi = moran_chi_square_test(35.0, n=10, k=5).statistic
        assert hi > lo

    def test_sig_level_moves_critical(self):
        loose = moran_chi_square_test(31.0, n=10, k=5, sig_level=0.10)
        tight = moran_chi_square_test(31.0, n=10, k=5, sig_level=0.01)
        assert tight.critical > loose.critical

    @pytest.mark.parametrize("t", [40.0, 100.0])
    def test_p_value_keeps_the_upper_tail(self, t):
        # 1 - cdf is 2e-12 off, relative, at T = 40, and reads 0 at T = 100,
        # where the chi-square_10 upper tail is 5.4e-17
        mp = pytest.importorskip("mpmath")
        n, k = 10, 5
        mean, var = moran_moments(n)
        c2 = math.sqrt(var) / math.sqrt(2.0 * n)
        res = moran_chi_square_test(t * c2 + mean - n * c2 - k / 2.0, n, k)
        assert res.statistic == pytest.approx(t, rel=1e-12)
        with mp.workdps(50):
            want = float(mp.gammainc(n / 2, mp.mpf(res.statistic) / 2, mp.inf, regularized=True))
        assert res.p_value == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            moran_chi_square_test(30.0, n=1, k=2)
        with pytest.raises(ValueError):
            moran_chi_square_test(30.0, n=10, k=2, sig_level=1.5)
