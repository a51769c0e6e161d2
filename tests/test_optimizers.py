"""Checks for the maximization front end shared by all fitting code."""

import threading

import numpy as np
import pytest
from scipy.optimize import minimize

from genfit.optimizers import (
    _BIG, _F_TOL, _X_TOL, OptimizerConfig, _nelder_mead, _value_and_grad, maximize, resolve_method
)


def stack(f):
    """f, a function of one point, over a (B, k) stack of points row by row."""
    return lambda xs: np.array([f(x) for x in xs])


def neg_quadratic(x):
    return -float(np.sum((x - np.array([1.0, -2.0])[: x.size]) ** 2))


def neg_rosenbrock(x):
    return float(neg_rosenbrock_rows(x[None])[0])


def neg_rosenbrock_rows(xs):
    """The Rosenbrock function, negated, at each row in one pass: products,
    not powers, so that every row gets a lone point's bits (numpy's scalar
    x ** 2 is a pow that may round otherwise)."""
    a, b = xs[:, 1] - xs[:, 0] * xs[:, 0], 1.0 - xs[:, 0]
    return -(100.0 * a * a + b * b)


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
            stack(neg_quadratic), [0.0, 0.0], OptimizerConfig(method=method, seed=0)
        )
        np.testing.assert_allclose(res.x_opt, [1.0, -2.0], atol=1e-4)
        assert res.f_opt == pytest.approx(0.0, abs=1e-8)
        assert res.converged

    def test_rosenbrock(self):
        res = maximize(
            stack(neg_rosenbrock),
            [-1.2, 1.0],
            OptimizerConfig(method="nelder-mead", max_iter=5000, seed=0),
        )
        np.testing.assert_allclose(res.x_opt, [1.0, 1.0], atol=1e-3)

    def test_stays_feasible(self):
        res = maximize(stack(half_space), [1.0], OptimizerConfig(seed=0))
        assert res.x_opt[0] > 0
        assert res.f_opt == pytest.approx(0.0, abs=1e-6)

    def test_infeasible_start_raises(self):
        with pytest.raises(ValueError, match="infeasible start"):
            maximize(stack(half_space), [-1.0], OptimizerConfig(seed=0))

    def test_seed_determinism(self):
        cfg = OptimizerConfig(method="sann", max_iter=500, seed=123)
        a = maximize(stack(neg_quadratic), [0.0, 0.0], cfg)
        b = maximize(stack(neg_quadratic), [0.0, 0.0], cfg)
        np.testing.assert_array_equal(a.x_opt, b.x_opt)
        assert a.f_opt == b.f_opt

    def test_never_worse_than_start(self):
        # one-iteration budget: the result must still be at least as good as x0
        cfg = OptimizerConfig(method="sann", max_iter=1, restarts=0, seed=5)
        x0 = np.array([1.0, -2.0])  # already the maximizer
        res = maximize(stack(neg_quadratic), x0, cfg)
        assert res.f_opt >= neg_quadratic(x0)

    def test_methods_agree(self):
        nm = maximize(stack(neg_rosenbrock), [0.5, 0.5], OptimizerConfig(method="nelder-mead", max_iter=5000, seed=0))
        bf = maximize(stack(neg_rosenbrock), [0.5, 0.5], OptimizerConfig(method="bfgs", max_iter=5000, seed=0))
        np.testing.assert_allclose(nm.x_opt, bf.x_opt, atol=1e-3)

    def test_reports_evals(self):
        res = maximize(stack(neg_quadratic), [0.0, 0.0], OptimizerConfig(seed=0))
        assert res.n_evals > 0

    @pytest.mark.parametrize("method", ["nelder-mead", "bfgs", "sann"])
    def test_n_evals_counts_every_call(self, method):
        # restarts, the feasibility probes and the gradient's calls included
        calls = [0]

        def counted(x):
            calls[0] += 1
            return half_space(x)

        res = maximize(stack(counted), [1.0], OptimizerConfig(method=method, max_iter=200, restarts=3, seed=0))
        assert res.n_evals == calls[0]


class TestGradient:
    def test_one_rows_call_per_gradient(self):
        # x and the 2k points x +- h_i e_i go to the objective as one stack, x first
        stacks = []

        def rows(xs):
            stacks.append(xs.copy())
            return np.array([neg_rosenbrock(x) for x in xs])

        x = np.array([0.3, -0.7])
        f, g = _value_and_grad(rows, x)
        assert len(stacks) == 1 and stacks[0].shape == (5, 2)
        assert stacks[0][0].tobytes() == x.tobytes() and f == neg_rosenbrock(x)
        x0, x1 = x
        np.testing.assert_allclose(g, [400 * x0 * (x1 - x0**2) + 2 * (1 - x0), -200 * (x1 - x0**2)], rtol=1e-6)

    @pytest.mark.parametrize("method", ["bfgs", "cg"])
    def test_rows_adapter_matches_the_default(self, method):
        # a native stack function gives the bits the row-by-row helper gives,
        # and n_evals counts its rows
        calls = []

        def rows(xs):
            calls.append(len(xs))
            return neg_rosenbrock_rows(xs)

        cfg = OptimizerConfig(method=method, max_iter=200, restarts=2, seed=0)
        plain = maximize(stack(neg_rosenbrock), [0.5, 0.5], cfg)
        batched = maximize(rows, [0.5, 0.5], cfg)
        assert batched.x_opt.tobytes() == plain.x_opt.tobytes()
        assert (batched.f_opt, batched.n_evals) == (plain.f_opt, plain.n_evals)
        assert sum(calls) == batched.n_evals


def _scipy_options(cfg):
    # the options scipy's Nelder-Mead ran with before the port
    return {"maxiter": cfg.max_iter, "maxfev": 50 * cfg.max_iter, "xatol": _X_TOL, "fatol": _F_TOL}


def _run_port(fun, x0, cfg):
    """Drive the Nelder-Mead generator: (x, f, calls, converged, message)."""
    run, calls = _nelder_mead(np.asarray(x0, dtype=float), cfg), 0
    points = next(run)
    try:
        while True:
            calls += len(points)
            points = run.send(np.array([fun(x) for x in points]))
    except StopIteration as done:
        x, f, converged, message = done.value
    return x, f, calls, converged, message


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def walled_bowl(x):
    # _BIG above a plane through the start's neighbourhood: the first simplex
    # has three points tied at _BIG, and scipy's argsort decides their order
    if np.sum(x) > 3.01:
        return _BIG
    return float(np.sum((x - np.array([-1.0, 0.5, 2.0])) ** 2))


def terraced(x):
    # a staircase: equal values at distinct points, so every tie rule matters
    return float(np.floor(4.0 * ((x[0] - 1.0) ** 2 + 2.0 * (x[1] + 0.5) ** 2)))


class TestNelderMeadPort:
    @pytest.mark.parametrize(
        "fun,x0,cfg",
        [
            (rosenbrock, [-1.2, 1.0], OptimizerConfig(max_iter=5000)),  # converges by tolerance
            (rosenbrock, [-1.2, 1.0], OptimizerConfig(max_iter=30)),  # stops at max_iter
            (walled_bowl, [1.0, 1.0, 1.0], OptimizerConfig()),  # ties at _BIG
            (terraced, [10.0, -10.0], OptimizerConfig()),  # ties between finite values
            (lambda x: float(np.sum(x**2)), [0.0, 2.0], OptimizerConfig()),  # a zero start coordinate
        ],
        ids=["converges", "max-iter", "ties-at-big", "terraces", "zero-coordinate"],
    )
    def test_matches_scipy_bit_for_bit(self, fun, x0, cfg):
        ref = minimize(fun, x0, method="Nelder-Mead", options=_scipy_options(cfg))
        x, f, calls, converged, message = _run_port(fun, x0, cfg)
        assert x.tobytes() == np.asarray(ref.x, dtype=float).tobytes()
        assert float(f) == float(ref.fun)
        assert (calls, converged, message) == (ref.nfev, ref.success, ref.message)

    def test_ties_case_hits_the_wall(self):
        assert sorted(walled_bowl(np.array(x)) for x in ([1.05, 1, 1], [1, 1.05, 1], [1, 1, 1.05])) == [_BIG] * 3


def central_diff(f, y):
    """f's central-difference gradient at y, one point at a time."""
    h = np.maximum(1e-7, 1e-7 * np.abs(y))
    return np.array([(f(y + d) - f(y - d)) / (2.0 * h_i) for h_i, d in zip(h, np.diag(h))])


def _sequential(objective, x0, cfg):
    """The restart loop as it ran before lockstep: scipy runs one after
    another, each point a single objective call.  Returns every run's
    (x, f, converged, message), f maximized, and the number of calls."""
    rng, calls = np.random.default_rng(cfg.seed), [0]

    def neg_f(x):
        calls[0] += 1
        v = objective(x)
        return _BIG if not np.isfinite(v) else -float(v)

    def run(x):
        if cfg.method == "nelder-mead":
            res = minimize(neg_f, x, method="Nelder-Mead", options=_scipy_options(cfg))
        else:
            res = minimize(neg_f, x, method=cfg.method.upper(), options={"maxiter": cfg.max_iter},
                           jac=lambda y: central_diff(neg_f, y))
        return np.asarray(res.x, dtype=float), -float(res.fun), bool(res.success), str(res.message)

    x0 = np.asarray(x0, dtype=float)
    neg_f(x0)
    runs = [run(x0)]
    for _ in range(cfg.restarts):
        jittered = x0 + rng.normal(scale=0.3, size=x0.size)
        if neg_f(jittered) != _BIG:
            runs.append(run(jittered))
    return runs, calls[0]


def tilted_half_space(x):
    # -inf for x[0] <= 0; from (0.2, 0) under seed 5 the first jitter is infeasible
    return float(tilted_half_space_rows(x[None])[0])


def tilted_half_space_rows(xs):
    """tilted_half_space at each row in one pass, with products as in
    neg_rosenbrock_rows."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = np.log(xs[:, 0]) - 1.0, xs[:, 1] - 0.5
    return np.where(xs[:, 0] > 0, -(a * a + b * b), -np.inf)


def two_basins(x):
    # a round bowl peaking at 0 left of x[0] = 1, a Rosenbrock valley peaking at -1 right of it
    if x[0] < 1:
        return -float(np.sum(x**2))
    return -1.0 - rosenbrock(x - np.array([2.0, 0.0]))


class TestLockstep:
    @staticmethod
    def _check_against_sequential(method, restarts, batched):
        cfg = OptimizerConfig(method=method, max_iter=400, restarts=restarts, seed=5)
        x0 = np.array([0.2, 0.0])
        rng = np.random.default_rng(5)
        assert [x0[0] + rng.normal(scale=0.3, size=2)[0] > 0 for _ in range(3)] == [False, True, True]
        stacks = []

        def objective(xs):
            stacks.append(len(xs))
            return tilted_half_space_rows(xs) if batched else stack(tilted_half_space)(xs)

        runs, calls = _sequential(tilted_half_space, x0, cfg)
        x, f, converged, message = max(runs, key=lambda run: run[1])
        res = maximize(objective, x0, cfg)
        assert res.x_opt.tobytes() == x.tobytes()
        assert (res.f_opt, res.converged, res.message) == (f, converged, message)
        assert res.runs == [run[1:] for run in runs]
        assert res.n_evals == sum(stacks)
        if method != "cg":
            # a CG line search may ask for f alone, which now brings its gradient's 2k points
            assert res.n_evals == calls

    @pytest.mark.parametrize("restarts", [0, 1, 2, 3])
    @pytest.mark.parametrize("batched", [False, True], ids=["row-by-row", "rows"])
    def test_matches_the_sequential_loop(self, restarts, batched):
        self._check_against_sequential("nelder-mead", restarts, batched)

    @pytest.mark.parametrize("restarts", [0, 1, 2, 3])
    @pytest.mark.parametrize("batched", [False, True], ids=["row-by-row", "rows"])
    @pytest.mark.parametrize("method", ["bfgs", "cg"])
    def test_gradient_methods_match_the_sequential_loop(self, method, restarts, batched):
        self._check_against_sequential(method, restarts, batched)

    @pytest.mark.parametrize("method", ["bfgs", "cg"])
    def test_gradient_methods_start_no_thread(self, method):
        # every run, restarts included, calls the objective on the calling thread
        seen = []

        def objective(xs):
            seen.append((threading.current_thread(), threading.enumerate()))
            return neg_rosenbrock_rows(xs)

        before = threading.enumerate()
        res = maximize(objective, [0.5, 0.5], OptimizerConfig(method=method, max_iter=200, restarts=3, seed=0))
        assert len(res.runs) == 4
        assert seen and all(seen_at == (threading.current_thread(), before) for seen_at in seen)

    @pytest.mark.parametrize("method,seed", [("bfgs", 1), ("cg", 3)])
    def test_runs_keep_every_restart(self, method, seed):
        # the main run converges and wins; restarts that fell into the valley stop at max_iter
        res = maximize(stack(two_basins), [0.9, 0.0], OptimizerConfig(method=method, max_iter=15, restarts=3, seed=seed))
        assert len(res.runs) == 4
        assert res.runs[0] == (res.f_opt, True, "Optimization terminated successfully.")
        stopped = [run for run in res.runs if not run[1]]
        assert stopped and all(f < res.f_opt for f, _, _ in stopped)
        assert {message for _, _, message in stopped} == {"Maximum number of iterations has been exceeded."}

    @pytest.mark.parametrize("method", ["nelder-mead", "bfgs", "cg"])
    @pytest.mark.parametrize("nth", [1, 2, 40])
    def test_a_raising_objective_leaves_no_thread(self, method, nth):
        # the start probe, the jitters' probe, or a step with all four runs live
        calls = [0]

        class Boom(Exception):
            pass

        def objective(x):
            calls[0] += 1
            if calls[0] == nth:
                raise Boom
            return neg_quadratic(x)

        before = threading.enumerate()
        # the caught traceback keeps maximize's frames, and so its runs, alive
        with pytest.raises(Boom) as caught:
            maximize(stack(objective), [0.0, 0.0], OptimizerConfig(method=method, restarts=3, seed=0))
        assert calls[0] == nth
        assert threading.enumerate() == before
        assert caught.traceback

    @pytest.mark.parametrize(
        "seed,x_hex,f_hex",
        [
            (0, ("0x1.59a30abcdbd9bp+1", "0x1.0b9f27a3f06fep-1"), "-0x1.254101ecb73dcp-11"),
            (1, ("0x1.57e27b0fcbd78p+1", "0x1.e8088c1d1b7a8p-2"), "-0x1.67431a30ef834p-11"),
        ],
    )
    def test_sann_unchanged(self, seed, x_hex, f_hex):
        # pinned from the sequential loop before lockstep; SANN keeps that loop
        res = maximize(stack(tilted_half_space), [1.0, 0.0], OptimizerConfig(method="sann", max_iter=300, restarts=2, seed=seed))
        assert [float(v).hex() for v in res.x_opt] == list(x_hex)
        assert float(res.f_opt).hex() == f_hex
        assert (res.n_evals, res.converged) == (906, True)

