"""Acceptance gate: every release criterion, one test each, one line each.

Each test prints a single ``PASS criterion N`` line when it succeeds (run
pytest with ``-s`` to see them).  Tolerances are stated inline; reference
numbers are frozen from independently verified analyses of the bundled
datasets and from closed-form/oracle computations.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from genfit.base_distributions import (
    BASE_DISTRIBUTIONS,
    base_cdf,
    base_pdf,
    base_quantile,
    get_base,
)
from genfit.datasets import load_dataset
from genfit.family_transforms import (
    FAMILIES,
    family_cdf,
    family_pdf,
    family_quantile,
    get_family,
    h_forward,
    h_inverse,
    log_h_prime,
)
from genfit.gof import full_report
from genfit.mps_fit import SpacingContext, _terms, chi_square_quantile, fit, spacing_value
from genfit.optimizers import OptimizerConfig
from genfit.selftest import selftest

BEARING_THETA = (0.9988519, 0.9708349, 0.8618143, 83.4125577, 147.1825435)
POLLUTION_THETA_NOLOC = (1.7785378951, 0.0001715355)

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


def h_at(family, u, one_minus_u, induced):
    """h at (u, 1 - u) at full precision: the family over the unit exponential
    at y = -ln(1 - u), taken from the side that holds it, is h at the triple
    (1 - e^-y, e^-y, y)."""
    with np.errstate(divide="ignore"):
        y = np.where(u < 0.5, -np.log1p(-u), -np.log(one_minus_u))
    return family_cdf(family, "exp", y, (*induced, 1.0), location=False)


def draw_induced(family, rng):
    out = []
    for lo, hi in get_family(family).domains:
        a = max(lo + 0.05, 0.5) if lo > -math.inf else 0.5
        b = min(hi - 0.05, 3.0)
        out.append(rng.uniform(min(a, b), max(a, b)))
    return tuple(out)


def draw_params(family, base, rng, mu=None):
    bp = tuple(rng.uniform(0.5, 3.0, size=get_base(base).n_params))
    if mu is None:
        mu = rng.uniform(0.0, 2.0)
    return draw_induced(family, rng) + bp + (mu,)


def test_criterion_1_bearing():
    t0 = time.time()
    data = load_dataset("bearing")
    ctx = SpacingContext(data, "weibullg", "weibull")
    res = fit(ctx, OptimizerConfig(seed=0))
    s_ref = spacing_value(BEARING_THETA, ctx)
    assert res.s_opt >= s_ref - 1e-6
    assert res.moran == pytest.approx(31.37394, abs=0.05)
    rep = full_report(data, "weibullg", "weibull", BEARING_THETA)
    assert rep.aic == pytest.approx(116.7875, abs=1e-3)
    assert rep.caic == pytest.approx(131.7875, abs=1e-3)
    assert rep.bic == pytest.approx(118.3004, abs=1e-3)
    assert rep.hqic == pytest.approx(115.1278, abs=1e-3)
    assert rep.ks_stat == pytest.approx(0.2042573, abs=1e-3)
    assert rep.chi_statistic == pytest.approx(12.88606, abs=0.05)
    assert rep.chi_critical == pytest.approx(18.30704, abs=1e-4)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: bearing fit reproduced (S diff {res.s_opt - s_ref:+.2e}, {elapsed:.1f}s)")


def test_criterion_2_pollution():
    t0 = time.time()
    data = load_dataset("pollution")
    res = fit(SpacingContext(data, "mog", "exp", location=True), OptimizerConfig(seed=0))
    assert res.moran == pytest.approx(78.72329, abs=0.05)
    rep_on = full_report(data, "mog", "exp", res.theta_hat, location=True)
    assert rep_on.chi_statistic == pytest.approx(28.18183, abs=0.05)
    assert rep_on.chi_critical == pytest.approx(31.41043, abs=1e-4)
    rep_off = full_report(data, "mog", "exp", POLLUTION_THETA_NOLOC, location=False)
    assert rep_off.aic == pytest.approx(398.5125, abs=0.01)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 2: pollution fit reproduced ({elapsed:.1f}s)")


def test_criterion_3_earthquake():
    t0 = time.time()
    data = load_dataset("earthquake")
    ctx_on = SpacingContext(data, "kumg", "birnbaum-saunders", location=True)
    res_on = fit(ctx_on, OptimizerConfig(seed=0))
    assert np.isfinite(res_on.s_opt)  # ties must not produce -inf objectives
    rep_on = full_report(data, "kumg", "birnbaum-saunders", res_on.theta_hat, True)
    assert rep_on.ks_stat <= 0.05
    ctx_off = SpacingContext(data, "kumg", "birnbaum-saunders", location=False)
    res_off = fit(ctx_off, OptimizerConfig(seed=0))
    rep_off = full_report(data, "kumg", "birnbaum-saunders", res_off.theta_hat, False)
    assert rep_off.ks_stat >= 0.09
    assert rep_off.ks_p < 0.05
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 3: earthquake contrast (KS on {rep_on.ks_stat:.4f}, "
        f"off {rep_off.ks_stat:.4f} p {rep_off.ks_p:.4f}, {elapsed:.1f}s)"
    )


def test_criterion_4_critical_values():
    assert chi_square_quantile(0.95, 10) == pytest.approx(18.30704, abs=1e-4)
    assert chi_square_quantile(0.95, 20) == pytest.approx(31.41043, abs=1e-4)
    print("\nPASS criterion 4: chi-square critical-value pins")


def test_criterion_5_identity_reductions():
    rng = np.random.default_rng(100)
    assert len(IDENTITY_POINTS) == 17
    for name, point in IDENTITY_POINTS.items():
        u = rng.uniform(0.0, 1.0, size=100)
        np.testing.assert_allclose(h_forward(name, u, point), u, atol=1e-12)
    u = rng.uniform(0.0, 1.0, size=100)
    np.testing.assert_allclose(
        h_forward("betaexpg", u, (2.0, 3.0, 1.0)),
        h_forward("betag", u, (3.0, 2.0)),
        atol=1e-12,
    )
    print("\nPASS criterion 5: 17 identity reductions + betaexpg/betag swap")


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _integrate(family, base, shape, pieces, panels=None):
    """Integral of the location-free density over ``pieces``, each
    ``(s0, s1, c, k)`` over s in [s0, s1] with y = s where k = 0 and
    y = c e^{k s} otherwise: composite 20-node Gauss-Legendre with ``panels``
    panels per piece, all nodes in one ``family_pdf`` call, or adaptive
    ``quad`` when ``panels`` is None."""
    if panels is None:
        def f(s, c, k):
            y = c * math.exp(k * s) if k else s
            return family_pdf(family, base, y, shape, location=False) * (y if k else 1.0)

        return sum(quad(f, s0, s1, args=(c, k), limit=200)[0] for s0, s1, c, k in pieces)
    s0, s1, c, k = (np.array(v)[:, None] for v in zip(*pieces))
    t = ((np.arange(panels)[:, None] + (GL_NODES + 1.0) / 2.0) / panels).ravel()
    s = s0 + (s1 - s0) * t
    y = np.where(k == 0, s, c * np.exp(k * s))
    w = (s1 - s0) / (2.0 * panels) * np.tile(GL_WEIGHTS, panels) * np.where(k == 0, 1.0, y)
    return float(np.sum(w * family_pdf(family, base, y, shape, location=False)))


def test_criterion_6_normalization():
    t0 = time.time()
    rng = np.random.default_rng(600)
    worst = worst_gap = 0.0
    for family in sorted(FAMILIES):
        for i_base, base in enumerate(sorted(BASE_DISTRIBUTIONS)):
            done = 0
            attempts = 0
            while done < 10:
                params = draw_params(family, base, rng)
                mu = params[-1]
                shape = params[:-1]
                *knots, hi = family_quantile(
                    family, base, [0.25, 0.5, 0.75, 0.95, 0.999, 1.0 - 1e-10], params
                )
                attempts += 1
                if not np.isfinite(hi) and attempts < 40:
                    continue  # quantile beyond double range; redraw
                tail = 0.0
                if not np.isfinite(hi) or hi > 1e300:
                    # some pairings (log-scale transform over a power-tail
                    # base) put real mass beyond the largest double for every
                    # parameter draw; integrate to 1e300 and account for the
                    # remainder through the survival function, whose
                    # consistency with the density criterion 10 checks
                    hi = 1e300
                    tail = family_cdf(family, base, hi, params, lower_tail=False)
                knots = [mu] + [q for q in knots if q < hi] + [hi]
                # every segment is integrated in y = x - mu (location=False,
                # no mu): every base computes fl(x) - mu first, so this is
                # the same function, and near mu neither the nodes nor the
                # sliver's end eps_mu are rounded onto mu's ulp grid, which
                # would put a gap between the two and turn the integrand
                # into a staircase
                total = tail
                pieces = []
                for lo_k, hi_k in zip(knots[:-1], knots[1:]):
                    if lo_k == mu:
                        # within a few ulp of the left endpoint there is no
                        # representable x strictly between mu and mu + eps, yet
                        # a singular density can hold real mass there; take
                        # that sliver from the cdf (criterion 10 checks
                        # pdf/cdf consistency) and reach the rest through
                        # s = -ln(y/c), which turns an integrable power
                        # singularity into a smooth exponential
                        eps_mu = 16.0 * np.finfo(float).eps * max(abs(mu), 1.0)
                        c = hi_k - mu
                        if c <= eps_mu:
                            total += family_cdf(family, base, hi_k, params)
                            continue
                        total += family_cdf(family, base, eps_mu, shape, location=False)
                        s_hi = math.log(c / eps_mu)
                        s_edges = np.linspace(0.0, s_hi, 2 + int(s_hi // 40.0))
                        for s0, s1 in zip(s_edges[:-1], s_edges[1:]):
                            pieces.append((s0, s1, c, -1.0))
                        # the segment ends where the shifted code path's next
                        # segment begins
                        assert family_cdf(family, base, hi_k, params) == family_cdf(
                            family, base, c, shape, location=False
                        ), (family, base, params)
                    elif (hi_k - mu) < 10.0 * (lo_k - mu):
                        pieces.append((lo_k - mu, hi_k - mu, 1.0, 0.0))
                    else:
                        # heavy-tail segment spanning decades: substitute
                        # y = a e^s so power tails become smooth exponentials,
                        # and chunk very wide s-ranges so each chunk's
                        # integrand stays smooth
                        a_s = lo_k - mu
                        s_hi = math.log((hi_k - mu) / a_s)
                        s_edges = np.linspace(0.0, s_hi, 2 + int(s_hi // 40.0))
                        for s0, s1 in zip(s_edges[:-1], s_edges[1:]):
                            pieces.append((s0, s1, a_s, 1.0))
                # the order gap bounds the rule's error on every draw
                t16 = total + _integrate(family, base, shape, pieces, 16)
                t32 = total + _integrate(family, base, shape, pieces, 32)
                worst_gap = max(worst_gap, abs(t16 - t32))
                assert abs(t16 - t32) <= 1e-7, (family, base, params, t16, t32)
                if i_base == 0 and done == 0:
                    # adaptive quadrature on the first draw of each family
                    t_quad = total + _integrate(family, base, shape, pieces)
                    assert t_quad == pytest.approx(1.0, abs=1e-5), (family, base, params)
                    assert abs(t_quad - t32) <= 1e-7, (family, base, params, t_quad, t32)
                worst = max(worst, abs(t32 - 1.0))
                assert t32 == pytest.approx(1.0, abs=1e-5), (family, base, params)
                done += 1
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(
        f"\nPASS criterion 6: 24x15x10 normalization (worst |err| {worst:.2e}, "
        f"worst |T16 - T32| {worst_gap:.2e}, {elapsed:.0f}s)"
    )


def test_criterion_7_quantile_round_trip():
    rng = np.random.default_rng(700)
    families = sorted(FAMILIES)
    bases = sorted(BASE_DISTRIBUTIONS)
    worst = 0.0
    done = 0
    while done < 1000:
        family = families[rng.integers(len(families))]
        base = bases[rng.integers(len(bases))]
        params = draw_params(family, base, rng)
        p = rng.uniform(1e-6, 1.0 - 1e-6)
        x = family_quantile(family, base, p, params)
        if not np.isfinite(x):
            continue  # honest double-precision overflow; redraw
        back = family_cdf(family, base, x, params)
        worst = max(worst, abs(back - p))
        assert back == pytest.approx(p, abs=1e-6), (family, base, params, p)
        done += 1
    print(f"\nPASS criterion 7: 1000 quantile round trips (worst |err| {worst:.2e})")


def test_criterion_8_selftest():
    t0 = time.time()
    for base in ("birnbaum-saunders", "log-logistic", "lomax", "weibull"):
        rows = selftest("loggammag1", base, reps=100, seed=8)
        for row in rows:
            assert row.frac_above_005 >= 0.90, (base, row.n, row.frac_above_005)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"\nPASS criterion 8: sampling self-test healthy for 4 bases ({elapsed:.0f}s)")


def test_criterion_9_objective_bound():
    rng = np.random.default_rng(900)
    families = sorted(FAMILIES)
    bases = sorted(BASE_DISTRIBUTIONS)
    done = 0
    while done < 1000:
        family = families[rng.integers(len(families))]
        base = bases[rng.integers(len(bases))]
        params = draw_params(family, base, rng, mu=0.0)
        n = int(rng.integers(2, 15))
        x = np.unique(rng.uniform(0.05, 4.0, size=n))
        if x.size < 2:
            continue
        ctx = SpacingContext(x, family, base)
        terms = _terms(*ctx.model.resolve(params), ctx)
        if not np.all(np.isfinite(terms)):
            continue  # saturated cdf for this draw; redraw
        s = float(np.sum(terms) / ctx.m)
        assert spacing_value(params, ctx) == s
        assert s <= -math.log(ctx.m) + 1e-12
        assert np.sum(np.exp(terms)) == pytest.approx(1.0, abs=1e-12)
        done += 1
    print("\nPASS criterion 9: S <= -ln m and spacings sum to 1 over 1000 draws")


def test_criterion_10_derivative_consistency():
    rng = np.random.default_rng(1000)
    # transform derivative against finite differences of the forward map,
    # evaluated at h-quantile-spaced interior points with the perturbation
    # applied to u and 1-u jointly at full precision
    for family in sorted(FAMILIES):
        induced = draw_induced(family, rng)
        q = np.linspace(0.04, 0.96, 20)
        u_pts = np.asarray(h_inverse(family, q, induced))
        for ui in u_pts:
            if ui < 1e-8 or 1.0 - ui < 1e-8:
                continue  # saturated in double precision
            ana = math.exp(log_h_prime(family, ui, induced))
            if ana < 1e-12:
                continue  # below finite-difference resolution
            step = 1e-6 * min(ui, 1.0 - ui)
            omu = 1.0 - ui
            hi = h_at(family, ui + step, omu - step, induced)
            lo = h_at(family, ui - step, omu + step, induced)
            fd = (hi - lo) / (2.0 * step)
            assert fd == pytest.approx(ana, rel=1e-5), (family, ui)
    # base pdf against finite differences of the base cdf
    for base in sorted(BASE_DISTRIBUTIONS):
        params = tuple([1.3] * get_base(base).n_params) + (0.0,)
        for qv in np.linspace(0.05, 0.95, 20):
            x = base_quantile(base, qv, params)
            h = 1e-6 * max(abs(x), 1.0)
            fd = (base_cdf(base, x + h, params) - base_cdf(base, x - h, params)) / (2 * h)
            assert fd == pytest.approx(base_pdf(base, x, params), rel=1e-5)
    print("\nPASS criterion 10: derivative consistency for 24 transforms and 15 bases")
