"""Large evaluations cut across the cores.

The chain runners cut an input of ``chains._SPLIT`` elements or more along its
last axis into one part per core and join the parts.  Every map works element
by element, so the joined result must equal the uncut one bit for bit; the
reference here is the same call with the threshold raised past the input.
``chains._cores`` is patched, so the cut runs on a machine of any size.
"""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from genfit import chains, mps_fit
from genfit.datasets import load_dataset
from genfit.family_transforms import family_cdf, family_log_pdf, family_pdf, family_quantile

N = 2**16

# eval_bulk's six compositions
BULK = (
    ("kumg", "weibull", (2.0, 3.0, 1.5, 2.0, 0.5)),
    ("mog", "exp", (2.0, 0.5, 0.0)),
    ("weibullg", "log-normal", (1.5, 0.8, 0.3, 0.6, 1.0)),
    ("betag", "gamma", (2.5, 1.5, 2.0, 1.5, 0.0)),
    ("gammag", "lomax", (2.0, 3.0, 2.0, 0.0)),
    ("loggammag1", "birnbaum-saunders", (1.5, 2.0, 0.5, 1.0, 0.0)),
)


def _split_equals_uncut(monkeypatch, fn, cores=3):
    monkeypatch.setattr(chains, "_cores", lambda: cores)
    got = fn()
    monkeypatch.setattr(chains, "_SPLIT", 2**62)
    np.testing.assert_array_equal(got, fn())
    return got


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("family, base, params", BULK, ids=[f"{f}x{b}" for f, b, _ in BULK])
def test_bulk_split_equals_uncut(monkeypatch, family, base, params, cores):
    p = np.random.default_rng(11).uniform(size=N)
    x = _split_equals_uncut(monkeypatch, lambda: family_quantile(family, base, p, params), cores)
    for kw in ({}, {"lower_tail": False}, {"log_p": True}):
        _split_equals_uncut(monkeypatch, lambda: family_cdf(family, base, x, params, **kw), cores)
    _split_equals_uncut(monkeypatch, lambda: family_pdf(family, base, x, params), cores)


# the deep-tail calls whose parts once joined 1-9 ulps off the uncut call: the
# gamma solvers stopped every element on the slowest
@pytest.mark.parametrize("family, base, params", [
    ("expexppg", "chisq", (1.38, 1.77, 1.85, 0.5)),
    ("loggammag1", "gamma", (1.13, 1.65, 1.82, 2.8, 0.5)),
])
def test_deep_upper_quantile(monkeypatch, family, base, params):
    q = 10.0 ** -np.random.default_rng(12).uniform(0.0, 320.0, N)
    _split_equals_uncut(monkeypatch, lambda: family_quantile(family, base, q, params, lower_tail=False))


@pytest.mark.parametrize("family, base, params", [
    ("gammag", "gamma", (0.94, 0.55, 1.12, 0.5)),
    ("gxlogisticg", "gamma", (1.67, 2.85, 2.52, 0.5)),
    ("weibullg", "chisq", (2.51, 1.48, 0.69, 0.5)),
])
def test_far_log_pdf(monkeypatch, family, base, params):
    x = 0.5 + 10.0 ** np.random.default_rng(13).uniform(0.0, 6.0, N)
    _split_equals_uncut(monkeypatch, lambda: family_log_pdf(family, base, x, params))


def test_stack_with_parameter_columns(monkeypatch):
    # a (B, n) state with (B, 1) parameter columns is cut along n
    ctx = mps_fit.SpacingContext(load_dataset("bearing"), "betag", "gamma")
    cols = tuple(np.array([[1.5], [2.5], [0.7]]) * c for c in (1.0, 1.2, 2.0, 0.8))
    steps = ctx.model.steps(cols)
    y = np.random.default_rng(14).gamma(2.0, size=(3, N // 2))
    _split_equals_uncut(monkeypatch, lambda: chains._cdf(steps, y))
    _split_equals_uncut(monkeypatch, lambda: chains._log_density(steps, y))


def test_one_walk_split_equals_uncut(monkeypatch):
    # the cdf and the log-density from one walk, on a (B, n) stack with
    # (B, 1) parameter columns and on one row with float parameters, each
    # cut along n; the first elements are outside the support
    ctx = mps_fit.SpacingContext(load_dataset("bearing"), "betag", "gamma")
    theta = np.array([[1.5], [2.5], [0.7]]) * np.array([1.0, 1.2, 2.0, 0.8])
    y = np.random.default_rng(16).gamma(2.0, size=(3, N // 2))
    y[:, :4] = [0.0, np.nan, -1.0, np.inf]
    split = chains._SPLIT
    for steps, x in ((ctx.model.steps(list(theta.T[:, :, None])), y), (ctx.model.steps(theta[0].tolist()), y[0])):
        monkeypatch.setattr(chains, "_SPLIT", split)
        v, log_density = _split_equals_uncut(monkeypatch, lambda: chains._cdf_log_density(steps, x))
        assert v.shape == log_density.shape == x.shape


def test_small_input_is_not_cut(monkeypatch):
    def refuse(*args):
        raise AssertionError("a small input reached the cut")

    monkeypatch.setattr(chains, "_in_parts", refuse)
    x = np.linspace(0.1, 5.0, chains._SPLIT - 1)
    family_pdf("betag", "gamma", x, (2.5, 1.5, 2.0, 1.5, 0.0))
    family_quantile("betag", "gamma", 0.5, (2.5, 1.5, 2.0, 1.5, 0.0))


def test_fit_path_leaves_the_pool_unstarted(monkeypatch):
    # fit_reference's largest stack: earthquake kumg x birnbaum-saunders under
    # BFGS, (2k + 1) rows for each of its four runs
    monkeypatch.setattr(chains, "_pool", None)
    monkeypatch.setattr(chains, "_cores", lambda: 2)
    ctx = mps_fit.SpacingContext(load_dataset("earthquake"), "kumg", "birnbaum-saunders")
    psi = mps_fit.to_free(ctx, mps_fit._start_theta(ctx))
    rows = psi + np.random.default_rng(15).normal(0.0, 1e-3, (4 * (2 * ctx.k + 1), ctx.k))
    assert rows.shape[0] * ctx.n < chains._SPLIT
    assert np.isfinite(mps_fit._spacing_rows(rows, ctx)).any()
    assert chains._pool is None


def test_concurrent_callers_share_one_pool(monkeypatch):
    # more calling threads than cores race to make the pool and share it
    monkeypatch.setattr(chains, "_pool", None)
    monkeypatch.setattr(chains, "_cores", lambda: 3)
    p = np.random.default_rng(17).uniform(size=N)
    params = BULK[3][2]
    split = chains._SPLIT
    monkeypatch.setattr(chains, "_SPLIT", 2**62)
    want = family_quantile("betag", "gamma", p, params)
    monkeypatch.setattr(chains, "_SPLIT", split)
    got, pools = [None] * 6, set()

    def call(i):
        got[i] = family_quantile("betag", "gamma", p, params)
        pools.add(id(chains._pool))

    threads = [threading.Thread(target=call, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(pools) == 1
    for g in got:
        np.testing.assert_array_equal(g, want)


def _large_call(out):
    p = np.random.default_rng(16).uniform(size=N)
    out.put(float(np.sum(family_quantile("kumg", "weibull", p, BULK[0][2]))))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform")
def test_forked_child_makes_a_large_call(monkeypatch):
    monkeypatch.setattr(chains, "_cores", lambda: 2)
    q = multiprocessing.get_context("fork").Queue()
    _large_call(q)  # starts the pool in this process
    assert chains._pool is not None
    want = q.get(timeout=10)
    child = multiprocessing.get_context("fork").Process(target=_large_call, args=(q,))
    child.start()
    try:
        got = q.get(timeout=60)
        child.join(timeout=10)
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert got == want
