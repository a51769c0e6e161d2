"""Derivative-free and gradient-based maximizers for the spacing objective.

The objective convention is maximization; infeasible points are signalled by
-inf, never by exceptions.  Nelder-Mead is implemented here, as a port of
scipy's that yields the stacks of points it needs, so that a fit's main run
and its jittered restarts advance in lockstep, one stack evaluation per step,
and reach the points scipy's run would, bit for bit.  BFGS and CG are
delegated to ``scipy.optimize`` (with an explicit central-difference
gradient, which evaluates its 2k points as one stack); they are the only
methods that import it.  Simulated annealing is implemented here.
"L-BFGS-B" is accepted as an alias of BFGS because all box constraints are
removed upstream by smooth reparameterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OptimizerConfig", "OptResult", "maximize", "resolve_method"]

_BIG = 1e300

_ALIASES = {
    "nelder-mead": "nelder-mead",
    "neldermead": "nelder-mead",
    "nedler-mead": "nelder-mead",  # the published example session's spelling
    "bfgs": "bfgs",
    "l-bfgs-b": "bfgs",
    "lbfgsb": "bfgs",
    "cg": "cg",
    "sann": "sann",
}


def resolve_method(name: str) -> str:
    key = name.strip().lower()
    if key not in _ALIASES:
        raise ValueError(
            f"unknown optimizer {name!r}; valid: Nelder-Mead, BFGS, CG, L-BFGS-B, SANN"
        )
    return _ALIASES[key]


@dataclass
class OptimizerConfig:
    method: str = "nelder-mead"
    max_iter: int = 2000
    f_tol: float = 1e-10
    x_tol: float = 1e-8
    restarts: int = 3
    seed: int | None = None


@dataclass
class OptResult:
    x_opt: np.ndarray
    f_opt: float
    n_evals: int  # every objective call maximize made, over all restarts
    converged: bool
    message: str


class _InfeasibleStart(ValueError):
    """The objective is not finite at the starting point."""


def _central_diff_grad(rows, x):
    """Central differences from one ``rows`` call on the 2k points x +- h_i e_i."""
    h = np.maximum(1e-7, 1e-7 * np.abs(x))
    f = rows(np.concatenate([x + np.diag(h), x - np.diag(h)]))
    return (f[: x.size] - f[x.size :]) / (2.0 * h)


def _sann(neg_f, x0, config, rng):
    x = x0.copy()
    fx = neg_f(x)
    best_x, best_f = x.copy(), fx
    temp = 1.0
    for _ in range(config.max_iter):
        cand = x + rng.normal(scale=0.1 + 0.4 * temp, size=x.size)
        fc = neg_f(cand)
        if fc < fx or rng.uniform() < np.exp(-(fc - fx) / max(temp, 1e-12)):
            x, fx = cand, fc
            if fx < best_f:
                best_x, best_f = x.copy(), fx
        temp *= 0.995
    return best_x, best_f


def _order(sim, fsim):
    """The simplex sorted so that sim[0] has the lowest value, by scipy's calls."""
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def _nelder_mead(x0, config):
    """Nelder-Mead minimization from x0, step for step as scipy 1.17.1's
    ``_minimize_neldermead`` takes it with its default simplex and
    coefficients and no bounds.  It has no cap on evaluations: a run makes at
    most (k + 1) + (k + 2)(max_iter - 1), which is below the 50 max_iter cap
    scipy was given for every k < 48.

    A generator: it yields each (B, k) stack of points it needs -- the initial
    simplex, a shrink's k points, or one point -- is sent their B values, and
    returns (x, f, converged, message)."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array((yield sim), dtype=float)
    # scipy sorts the first simplex twice, and argsort need not keep ties
    sim, fsim = _order(*_order(sim, fsim))
    iterations = 1
    while iterations < config.max_iter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= config.x_tol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= config.f_tol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        (fxr,) = yield xr[None]
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            (fxe,) = yield xe[None]
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                (fxc,) = yield xc[None]
                shrink = fxc > fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                (fxc,) = yield xc[None]
                shrink = fxc >= fsim[-1]
            if shrink:
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fsim[1:] = yield sim[1:]
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        sim, fsim = _order(sim, fsim)
    if iterations >= config.max_iter:
        return sim[0], np.min(fsim), False, "Maximum number of iterations has been exceeded."
    return sim[0], np.min(fsim), True, "Optimization terminated successfully."


def _lockstep(neg_rows, starts, config):
    """One Nelder-Mead run from each start, advanced together: each step
    evaluates every point the unfinished runs wait for in one ``neg_rows``
    call.  Returns each run's (x, f, converged, message), f maximized."""
    runs = [_nelder_mead(x, config) for x in starts]
    waiting = [(i, run, next(run)) for i, run in enumerate(runs)]
    results = [None] * len(runs)
    while waiting:
        values = neg_rows(waiting[0][2] if len(waiting) == 1 else np.concatenate([w[2] for w in waiting]))
        still, pos = [], 0
        for i, run, points in waiting:
            try:
                still.append((i, run, run.send(values[pos : pos + len(points)])))
            except StopIteration as done:
                x, f, converged, message = done.value
                results[i] = (x, -float(f), converged, message)
            pos += len(points)
        waiting = still
    return results


def _neg(values):
    """Maximized values as the minimizers take them: -f, or _BIG where not finite."""
    return np.where(np.isfinite(values), -values, _BIG)


def _neg_one(v):
    """``_neg`` of one value, at a Python float's cost."""
    return _BIG if not math.isfinite(v) else -float(v)


def _run_once(objective, rows, x0, config, rng):
    """One BFGS, CG or SANN run from x0: (x, f, converged, message)."""

    def neg_f(x):
        return _neg_one(objective(np.asarray(x, dtype=float)))

    if resolve_method(config.method) == "sann":
        x, f = _sann(neg_f, x0, config, rng)
        return x, -f, True, "sann schedule completed"
    # imported here so that evaluation and Nelder-Mead never pay for scipy.optimize
    from scipy.optimize import minimize

    res = minimize(
        neg_f,
        x0,
        method={"bfgs": "BFGS", "cg": "CG"}[resolve_method(config.method)],
        jac=lambda x: _central_diff_grad(lambda xs: _neg(rows(xs)), x),
        options={"maxiter": config.max_iter},
    )
    return np.asarray(res.x, dtype=float), -float(res.fun), bool(res.success), str(res.message)


def maximize(objective, x0, config: OptimizerConfig, rows=None) -> OptResult:
    """Maximize ``objective`` from x0 with jittered restarts; returns the best
    point found, the first in restart order among equals.  Raises if the
    starting point itself is infeasible.

    ``rows`` maps a (B, k) stack of points to their B values, by default by
    ``objective`` row by row; a stack of one row goes to ``objective``.  Under
    Nelder-Mead, which draws nothing from the generator during a run, the
    restarts' jitters are drawn up front and probed as one stack, and the
    feasible runs advance in lockstep, one stack per step.  The other methods
    run one after another (a SANN run draws from the generator); each BFGS
    or CG gradient is one stack.  ``n_evals`` counts every point evaluated."""
    n_evals = 0

    def counted(x):
        nonlocal n_evals
        n_evals += 1
        return objective(x)

    def counted_rows(xs):
        nonlocal n_evals
        n_evals += len(xs)
        if len(xs) == 1 or rows is None:
            return np.array([objective(x) for x in xs])
        return rows(xs)

    def neg_rows(xs):
        # a lone point skips the array round trip: most Nelder-Mead steps are one
        return [_neg_one(counted(xs[0]))] if len(xs) == 1 else _neg(counted_rows(xs))

    x0 = np.asarray(x0, dtype=float)
    f0 = float(counted(x0))
    if not np.isfinite(f0):
        raise _InfeasibleStart("infeasible start")
    rng = np.random.default_rng(config.seed)
    restarts = max(config.restarts, 0)
    if resolve_method(config.method) == "nelder-mead":
        starts = [x0]
        if restarts:
            jitters = np.array([x0 + rng.normal(scale=0.3, size=x0.size) for _ in range(restarts)])
            starts += list(jitters[np.isfinite(counted_rows(jitters))])
        runs = _lockstep(neg_rows, starts, config)
    else:
        runs = [_run_once(counted, counted_rows, x0, config, rng)]
        for _ in range(restarts):
            jittered = x0 + rng.normal(scale=0.3, size=x0.size)
            if np.isfinite(counted(jittered)):
                runs.append(_run_once(counted, counted_rows, jittered, config, rng))
    best = max(runs, key=lambda run: run[1])
    # never report a point worse than where we started
    if best[1] < f0:
        best = (x0, f0, False, "no improvement over start")
    x, f, converged, message = best
    return OptResult(x, f, n_evals, converged, message)
