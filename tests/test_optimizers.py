"""Checks for the maximization front end shared by all fitting code."""

import numpy as np
import pytest

from genfit.optimizers import OptimizerConfig, _central_diff_grad, maximize, resolve_method


def neg_quadratic(x):
    return -float(np.sum((x - np.array([1.0, -2.0])[: x.size]) ** 2))


def neg_rosenbrock(x):
    return -float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def half_space(x):
    # infeasible (signalled by -inf) for x[0] <= 0
    if x[0] <= 0:
        return -np.inf
    return -float((np.log(x[0]) - 1.0) ** 2)


class TestResolveMethod:
    @pytest.mark.parametrize(
        "alias,canonical",
        [
            ("Nelder-Mead", "nelder-mead"),
            ("nedler-mead", "nelder-mead"),  # legacy example-session spelling
            ("BFGS", "bfgs"),
            ("L-BFGS-B", "bfgs"),
            ("CG", "cg"),
            ("SANN", "sann"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert resolve_method(alias) == canonical

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_method("genetic")


class TestMaximize:
    @pytest.mark.parametrize("method", ["nelder-mead", "bfgs", "cg"])
    def test_quadratic(self, method):
        res = maximize(
            neg_quadratic, [0.0, 0.0], OptimizerConfig(method=method, seed=0)
        )
        np.testing.assert_allclose(res.x_opt, [1.0, -2.0], atol=1e-4)
        assert res.f_opt == pytest.approx(0.0, abs=1e-8)
        assert res.converged

    def test_rosenbrock(self):
        res = maximize(
            neg_rosenbrock,
            [-1.2, 1.0],
            OptimizerConfig(method="nelder-mead", max_iter=5000, seed=0),
        )
        np.testing.assert_allclose(res.x_opt, [1.0, 1.0], atol=1e-3)

    def test_stays_feasible(self):
        res = maximize(half_space, [1.0], OptimizerConfig(seed=0))
        assert res.x_opt[0] > 0
        assert res.f_opt == pytest.approx(0.0, abs=1e-6)

    def test_infeasible_start_raises(self):
        with pytest.raises(ValueError, match="infeasible start"):
            maximize(half_space, [-1.0], OptimizerConfig(seed=0))

    def test_seed_determinism(self):
        cfg = OptimizerConfig(method="sann", max_iter=500, seed=123)
        a = maximize(neg_quadratic, [0.0, 0.0], cfg)
        b = maximize(neg_quadratic, [0.0, 0.0], cfg)
        np.testing.assert_array_equal(a.x_opt, b.x_opt)
        assert a.f_opt == b.f_opt

    def test_never_worse_than_start(self):
        # one-iteration budget: the result must still be at least as good as x0
        cfg = OptimizerConfig(method="sann", max_iter=1, restarts=0, seed=5)
        x0 = np.array([1.0, -2.0])  # already the maximizer
        res = maximize(neg_quadratic, x0, cfg)
        assert res.f_opt >= neg_quadratic(x0)

    def test_methods_agree(self):
        nm = maximize(neg_rosenbrock, [0.5, 0.5], OptimizerConfig(method="nelder-mead", max_iter=5000, seed=0))
        bf = maximize(neg_rosenbrock, [0.5, 0.5], OptimizerConfig(method="bfgs", max_iter=5000, seed=0))
        np.testing.assert_allclose(nm.x_opt, bf.x_opt, atol=1e-3)

    def test_reports_evals(self):
        res = maximize(neg_quadratic, [0.0, 0.0], OptimizerConfig(seed=0))
        assert res.n_evals > 0

    @pytest.mark.parametrize("method", ["nelder-mead", "bfgs", "sann"])
    def test_n_evals_counts_every_call(self, method):
        # restarts, the feasibility probes and the gradient's calls included
        calls = [0]

        def counted(x):
            calls[0] += 1
            return half_space(x)

        res = maximize(counted, [1.0], OptimizerConfig(method=method, max_iter=200, restarts=3, seed=0))
        assert res.n_evals == calls[0]


class TestGradient:
    def test_one_rows_call_per_gradient(self):
        # the 2k points x +- h_i e_i go to the objective as one stack
        stacks = []

        def rows(xs):
            stacks.append(xs.copy())
            return np.array([neg_rosenbrock(x) for x in xs])

        x = np.array([0.3, -0.7])
        g = _central_diff_grad(rows, x)
        assert len(stacks) == 1 and stacks[0].shape == (4, 2)
        x0, x1 = x
        np.testing.assert_allclose(g, [400 * x0 * (x1 - x0**2) + 2 * (1 - x0), -200 * (x1 - x0**2)], rtol=1e-6)

    @pytest.mark.parametrize("method", ["bfgs", "cg"])
    def test_rows_adapter_matches_the_default(self, method):
        # a rows function gives the bits the default row-by-row loop gives,
        # and n_evals counts its rows
        calls = []

        def rows(xs):
            calls.append(len(xs))
            return np.array([neg_rosenbrock(x) for x in xs])

        cfg = OptimizerConfig(method=method, max_iter=200, restarts=2, seed=0)
        plain = maximize(neg_rosenbrock, [0.5, 0.5], cfg)
        batched = maximize(neg_rosenbrock, [0.5, 0.5], cfg, rows=rows)
        np.testing.assert_array_equal(batched.x_opt, plain.x_opt)
        assert (batched.f_opt, batched.n_evals) == (plain.f_opt, plain.n_evals)
        assert calls and set(calls) == {4}
