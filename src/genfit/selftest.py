"""Sampling self-test: draw random parameter vectors, simulate, and check the
samples against the generating cdf with a one-sample Kolmogorov-Smirnov test.

For each sample size the test draws every parameter coordinate uniformly over
(0.5, 5) (clipped into the coordinate's domain), simulates, and records the
KS p-value over repeated replications.  A healthy sampler leaves almost all
p-values above 0.05.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_distributions import get_base
from .chains import Model
from .family_transforms import family_cdf, family_sample, get_family
from .gof import ks_test

__all__ = ["SelfTestRow", "selftest", "default_n_grid"]

_DRAW_LO, _DRAW_HI = 0.5, 5.0
_MAX_REDRAWS = 50  # theta draws per replication before a composition counts as unsampleable


@dataclass(frozen=True)
class SelfTestRow:
    n: int
    p_values: np.ndarray
    redraws: int

    @property
    def frac_above_005(self) -> float:
        return float(np.mean(self.p_values > 0.05))

    def summary(self):
        q = np.quantile(self.p_values, [0.0, 0.25, 0.5, 0.75, 1.0])
        return {
            "n": self.n,
            "min": float(q[0]),
            "q1": float(q[1]),
            "median": float(q[2]),
            "q3": float(q[3]),
            "max": float(q[4]),
            "frac_above_0.05": self.frac_above_005,
            "redraws": self.redraws,
        }


def default_n_grid():
    return list(range(5, 101, 5))


def selftest(family, base, n_grid=None, reps=100, seed=None):
    """Run the replication study; returns one SelfTestRow per sample size."""
    if n_grid is None:
        n_grid = default_n_grid()
    if reps < 1:
        raise ValueError(f"selftest needs reps >= 1, got {reps}")
    if any(n < 2 for n in n_grid):
        raise ValueError(f"selftest sample sizes must be >= 2, got {list(n_grid)}")
    # every coordinate's draw range, (0.5, 5) clipped into its open domain
    ranges = [(max(lo + 1e-9, _DRAW_LO), min(hi - 1e-9, _DRAW_HI))
              for lo, hi in Model((get_family(family), get_base(base))).domains]
    rng = np.random.default_rng(seed)
    rows = []
    for n in n_grid:
        p_values = np.empty(reps)
        redraws = 0
        for r in range(reps):
            for _ in range(_MAX_REDRAWS):
                theta = np.array([rng.uniform(min(a, b), max(a, b)) for a, b in ranges])
                x = family_sample(family, base, n, theta, location=True, rng=rng)
                if np.all(np.isfinite(x)):
                    break
                redraws += 1
            else:
                raise ValueError(f"could not draw a feasible parameter vector for {family} x {base}")
            u = family_cdf(family, base, np.sort(x), theta, location=True)
            _, p = ks_test(u)
            p_values[r] = p
        rows.append(SelfTestRow(n=int(n), p_values=p_values, redraws=redraws))
    return rows
