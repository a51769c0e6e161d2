"""Checks for the sampling self-test harness."""

import sys

import numpy as np
import pytest

from genfit.family_transforms import family_sample
from genfit.selftest import _MAX_REDRAWS, SelfTestRow, default_n_grid, selftest

# the module; the package's attribute genfit.selftest is the function
SELFTEST = sys.modules["genfit.selftest"]


def _failing_first(k):
    """family_sample with its first k draws non-finite."""
    calls = []

    def sample(family, base, n, *args, **kw):
        calls.append(n)
        x = family_sample(family, base, n, *args, **kw)
        return np.full(n, np.inf) if len(calls) <= k else x

    return sample


def test_default_grid():
    grid = default_n_grid()
    assert grid[0] == 5 and grid[-1] == 100
    assert all(b - a == 5 for a, b in zip(grid[:-1], grid[1:]))


def test_deterministic_given_seed():
    a = selftest("kumg", "weibull", n_grid=[10], reps=3, seed=42)
    b = selftest("kumg", "weibull", n_grid=[10], reps=3, seed=42)
    np.testing.assert_array_equal(a[0].p_values, b[0].p_values)


def test_small_run_shape_and_health():
    rows = selftest("loggammag1", "weibull", n_grid=[10, 20], reps=20, seed=7)
    assert [r.n for r in rows] == [10, 20]
    for row in rows:
        assert row.p_values.shape == (20,)
        assert np.all((row.p_values >= 0.0) & (row.p_values <= 1.0))
        # a correct sampler leaves nearly all p-values above 0.05
        assert row.frac_above_005 >= 0.9


def test_summary_fields():
    row = SelfTestRow(n=10, p_values=np.array([0.1, 0.5, 0.9]), redraws=2)
    s = row.summary()
    assert s["n"] == 10
    assert s["median"] == 0.5
    assert s["frac_above_0.05"] == 1.0
    assert s["redraws"] == 2


def test_redraws_count_the_non_finite_draws(monkeypatch):
    monkeypatch.setattr(SELFTEST, "family_sample", _failing_first(3))
    (row,) = selftest("kumg", "weibull", n_grid=[10], reps=2, seed=1)
    assert row.redraws == 3
    assert np.all((row.p_values >= 0.0) & (row.p_values <= 1.0))


def test_a_replication_with_no_finite_draw_raises(monkeypatch):
    # _MAX_REDRAWS draws, all non-finite: the composition is unsampleable
    monkeypatch.setattr(SELFTEST, "family_sample", _failing_first(_MAX_REDRAWS))
    with pytest.raises(ValueError, match="could not draw a feasible parameter vector for kumg x weibull"):
        selftest("kumg", "weibull", n_grid=[10], reps=1, seed=1)
    # one fewer leaves the last draw, which is finite
    monkeypatch.setattr(SELFTEST, "family_sample", _failing_first(_MAX_REDRAWS - 1))
    (row,) = selftest("kumg", "weibull", n_grid=[10], reps=1, seed=1)
    assert row.redraws == _MAX_REDRAWS - 1
