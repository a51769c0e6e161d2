"""Derivative-free and gradient-based maximizers for the spacing objective.

The objective convention is maximization; infeasible points are signalled by
-inf, never by exceptions.  Nelder-Mead, BFGS, and CG are delegated to
``scipy.optimize`` (BFGS/CG with an explicit central-difference gradient,
which evaluates its 2k points as one stack); simulated annealing is
implemented here.  "L-BFGS-B" is accepted as an alias
of BFGS because all box constraints are removed upstream by smooth
reparameterization.
"""

from __future__ import annotations

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


def _run_once(objective, rows, x0, config, rng):
    """One optimizer run from x0: (x, f, converged, message)."""

    def neg_f(x):
        v = objective(np.asarray(x, dtype=float))
        return _BIG if not np.isfinite(v) else -float(v)

    def neg_rows(xs):
        v = rows(xs)
        return np.where(np.isfinite(v), -v, _BIG)

    method = resolve_method(config.method)
    if method == "sann":
        x, f = _sann(neg_f, x0, config, rng)
        return x, -f, True, "sann schedule completed"
    # imported here so that evaluation alone never pays for scipy.optimize
    from scipy.optimize import minimize

    if method == "nelder-mead":
        res = minimize(
            neg_f,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iter,
                "maxfev": 50 * config.max_iter,
                "xatol": config.x_tol,
                "fatol": config.f_tol,
            },
        )
    else:
        scipy_method = {"bfgs": "BFGS", "cg": "CG"}[method]
        res = minimize(
            neg_f,
            x0,
            method=scipy_method,
            jac=lambda x: _central_diff_grad(neg_rows, x),
            options={"maxiter": config.max_iter},
        )
    return np.asarray(res.x, dtype=float), -float(res.fun), bool(res.success), str(res.message)


def maximize(objective, x0, config: OptimizerConfig, rows=None) -> OptResult:
    """Maximize ``objective`` from x0 with jittered restarts; returns the best
    point found.  Raises if the starting point itself is infeasible.
    ``rows`` maps a (B, k) stack of points to their B values, by default by
    ``objective`` row by row; each gradient is one call, and ``n_evals``
    counts its rows."""
    n_evals = 0

    def counted(x):
        nonlocal n_evals
        n_evals += 1
        return objective(x)

    def counted_rows(xs):
        nonlocal n_evals
        n_evals += len(xs)
        return rows(xs) if rows is not None else np.array([objective(x) for x in xs])

    x0 = np.asarray(x0, dtype=float)
    f0 = float(counted(x0))
    if not np.isfinite(f0):
        raise _InfeasibleStart("infeasible start")
    rng = np.random.default_rng(config.seed)
    best = _run_once(counted, counted_rows, x0, config, rng)
    for _ in range(max(config.restarts, 0)):
        jittered = x0 + rng.normal(scale=0.3, size=x0.size)
        if not np.isfinite(counted(jittered)):
            continue
        trial = _run_once(counted, counted_rows, jittered, config, rng)
        if trial[1] > best[1]:
            best = trial
    # never report a point worse than where we started
    if best[1] < f0:
        best = (x0, f0, False, "no improvement over start")
    x, f, converged, message = best
    return OptResult(x, f, n_evals, converged, message)
