"""Maximum product of spacings estimation.

The estimator maximizes the mean log-spacing

    S(theta) = (1/m) sum_i log[ F(x_(i)) - F(x_(i-1)) ],   m = n + 1,

with the boundary convention F(x_(0)) = 0, F(x_(m)) = 1.  Tied observations,
whose spacing is analytically zero, contribute the log-density at the tied
point instead (the Cheng-Stephens convention).  All parameter constraints are
removed by smooth reparameterization so every optimizer in the menu runs
unconstrained; in particular the location satisfies mu < x_(1) by
construction.

Each evaluation checks theta once and makes one base tail pass, which gives
both the cdf and the tied points' log-densities; ``SpacingContext`` builds the
free <-> natural maps once.

Moran's statistic is reported in its sum form M = -m S(theta_hat), and the
small-sample chi-square approximation maps M through the affine transform
that matches a chi-square_n mean/variance, with a k/2 estimated-parameter
correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

from .base_distributions import _base_tail, get_base
from .family_transforms import _h, _log_density, _resolve, get_family, n_total_params
from .optimizers import _InfeasibleStart, OptimizerConfig, OptResult, maximize
from .special_functions import chi_square_cdf, chi_square_quantile

__all__ = [
    "SpacingContext",
    "FitResult",
    "MoranTest",
    "spacing_value",
    "spacing_objective",
    "fit",
    "moran_moments",
    "moran_chi_square_test",
    "EULER_MASCHERONI",
]

# the truncation the spacing literature uses, kept verbatim for reproducibility
EULER_MASCHERONI = 0.57722


@dataclass
class SpacingContext:
    data: np.ndarray
    family: str
    base: str
    location: bool = True

    def __post_init__(self):
        data = np.sort(np.asarray(self.data, dtype=float))
        if data.size < 2:
            raise ValueError("spacing estimation needs at least 2 observations")
        if not np.all(np.isfinite(data)):
            raise ValueError("observations must be finite")
        self.data = data
        self.tie_mask = np.concatenate([[False], np.diff(data) == 0.0])
        self._maps = _transforms(self)

    @property
    def n(self) -> int:
        return self.data.size

    @property
    def m(self) -> int:
        return self.n + 1

    @property
    def k(self) -> int:
        return n_total_params(self.family, self.base, self.location)


@dataclass
class FitResult:
    theta_hat: np.ndarray
    s_opt: float
    moran: float
    convergence: OptResult
    k: int


@dataclass(frozen=True)
class MoranTest:
    statistic: float
    critical: float
    p_value: float
    df: int


# --- parameter reparameterization -----------------------------------------

_CLIP = 700.0


def _exp(psi):
    return math.exp(min(max(psi, -_CLIP), _CLIP))


# per induced-parameter domain: natural -> free and free -> natural maps, and
# the start value (for (0, inf), the reduction-identity point)
_DOMAINS = {
    (0.0, math.inf): (math.log, _exp, 1.0),
    (0.0, 1.0): (sc.logit, lambda psi: float(sc.expit(psi)), 0.5),
    (-1.0, 1.0): (math.atanh, lambda psi: math.tanh(min(max(psi, -20), 20)), 0.0),
}


def _transforms(ctx: SpacingContext):
    """Per-coordinate (natural -> free, free -> natural) maps."""
    bd = get_base(ctx.base)
    pairs = [_DOMAINS[d][:2] for d in get_family(ctx.family).domains]
    for i in range(bd.n_params):
        pairs.append(((lambda v: v), (lambda psi: psi)) if i in bd.real_params else (math.log, _exp))
    if ctx.location:
        x1 = float(ctx.data[0])
        pairs.append((lambda mu: math.log(x1 - mu), lambda psi: x1 - _exp(psi)))
    return pairs


def to_free(ctx: SpacingContext, theta):
    return np.array([t[0](float(v)) for t, v in zip(ctx._maps, theta)])


def from_free(ctx: SpacingContext, psi):
    """Natural parameters; every map is clipped, so this never raises."""
    return np.array([t[1](float(v)) for t, v in zip(ctx._maps, psi)])


# --- the objective ---------------------------------------------------------

def spacing_sum_terms(theta, ctx: SpacingContext):
    """Per-spacing log terms (length m), tie-corrected; -inf where infeasible."""
    fam, induced, b = _resolve(ctx.family, ctx.base, theta, ctx.location)
    tail = _base_tail(b, ctx.data)
    ext = np.concatenate([[0.0], _h(fam, induced, *tail), [1.0]])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(np.maximum(np.diff(ext), 0.0))
    if ctx.tie_mask.any():
        tied = np.flatnonzero(ctx.tie_mask)
        terms[tied] = _log_density(fam, induced, b, ctx.data[tied], [t[tied] for t in tail])
    return terms


def spacing_value(theta, ctx: SpacingContext) -> float:
    """Mean log-spacing S(theta) in the natural parameterization."""
    try:
        terms = spacing_sum_terms(theta, ctx)
    except (ValueError, OverflowError):
        return -math.inf
    if not np.all(np.isfinite(terms)):
        return -math.inf
    return float(np.sum(terms) / ctx.m)


def spacing_objective(theta_free, ctx: SpacingContext) -> float:
    """S(theta) over the unconstrained parameterization; -inf when invalid."""
    theta = from_free(ctx, theta_free)
    if not np.all(np.isfinite(theta)):
        return -math.inf
    return spacing_value(theta, ctx)


# --- starting values -------------------------------------------------------

# u/(1 - u) families without an identity point (at 1.0, F(x_(n)) = 1) start at
# h(1/2) = 1/2 and, with two parameters, h'(1/2) = 1; gammag2: P(a, 1) = 1/2
_ODDS_STARTS = {
    "gammag2": (1.31425,),
    "gmbetaexpg": (0.610816, 0.387856),
    "weibullextg": (math.log(2.0), 2.0 * math.log(2.0)),
}


def _start_theta(ctx: SpacingContext):
    domains = get_family(ctx.family).domains
    induced = list(_ODDS_STARTS.get(ctx.family, (_DOMAINS[d][2] for d in domains)))
    if ctx.location:
        mu0 = float(ctx.data[0]) - float(np.std(ctx.data)) / ctx.n
    else:
        mu0 = 0.0
    y = ctx.data - mu0
    if np.any(y <= 0):
        # location disabled but data not strictly positive relative to 0
        raise ValueError("data must exceed the support origin")
    base_start = list(get_base(ctx.base).start(y))
    theta = induced + base_start + ([mu0] if ctx.location else [])
    return np.asarray(theta, dtype=float)


def fit(ctx: SpacingContext, config: OptimizerConfig | None = None) -> FitResult:
    """Maximize the spacing objective and package the estimate."""
    if config is None:
        config = OptimizerConfig()
    x0 = to_free(ctx, _start_theta(ctx))
    try:
        res = maximize(lambda psi: spacing_objective(psi, ctx), x0, config)
    except _InfeasibleStart:
        raise ValueError(
            f"infeasible starting point for {ctx.family} x {ctx.base}; "
            "the spacing objective is -inf at the moment-based start"
        ) from None
    theta_hat = from_free(ctx, res.x_opt)
    s_opt = res.f_opt
    return FitResult(
        theta_hat=theta_hat,
        s_opt=s_opt,
        moran=-ctx.m * s_opt,
        convergence=res,
        k=ctx.k,
    )


# --- Moran's statistic and its chi-square approximation --------------------

def moran_moments(n: int):
    """Approximate mean and variance of Moran's statistic for sample size n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n + 1
    mean = m * (math.log(m) + EULER_MASCHERONI) - 0.5 - 1.0 / (12.0 * m)
    var = m * (math.pi**2 / 6.0 - 1.0) - 0.5 - 1.0 / (6.0 * m)
    return mean, var


def moran_chi_square_test(moran: float, n: int, k: int, sig_level: float = 0.05) -> MoranTest:
    """Map Moran's statistic to an approximate chi-square_n test statistic.

    T = (M + k/2 - C1) / C2 with C2 = sigma_M / sqrt(2n) and
    C1 = mu_M - n C2, so that under the null T has the chi-square_n
    mean/variance; k/2 corrects for estimated parameters.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 < sig_level < 1.0:
        raise ValueError("sig_level must lie in (0, 1)")
    mean, var = moran_moments(n)
    c2 = math.sqrt(var) / math.sqrt(2.0 * n)
    c1 = mean - n * c2
    statistic = (moran + k / 2.0 - c1) / c2
    critical = float(chi_square_quantile(1.0 - sig_level, n))
    p_value = float(1.0 - chi_square_cdf(statistic, n)) if statistic >= 0 else 1.0
    return MoranTest(statistic=statistic, critical=critical, p_value=p_value, df=n)
