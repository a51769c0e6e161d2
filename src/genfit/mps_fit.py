"""Maximum product of spacings estimation.

The estimator maximizes the mean log-spacing

    S(theta) = (1/m) sum_i log[ F(x_(i)) - F(x_(i-1)) ],   m = n + 1,

with the boundary convention F(x_(0)) = 0, F(x_(m)) = 1.  Tied observations,
whose spacing is analytically zero, contribute the log-density at the tied
point instead (the Cheng-Stephens convention).  All parameter constraints are
removed by smooth reparameterization so every optimizer in the menu runs
unconstrained; in particular the location satisfies mu < x_(1) by
construction.

``SpacingContext`` builds the composition's ``chains.Model`` and the free <->
natural maps once.  Each evaluation runs the one chain from y = x - mu, for
the cdf and, at tied points, the log-density.  A single theta stays Python
floats: ``spacing_objective`` resolves it through ``Model.resolve``, whose
domain error reads as -inf.  A stack goes through ``_spacing_rows`` in one
pass, masked on ``Model.domains``, its chain built by ``Model.steps`` on
(B, 1) columns: each step's points of all the runs in lockstep (a simplex, a
shrink or one point per Nelder-Mead run; a point and its gradient's 2k
points under BFGS and CG).  The float path stays: as a one-row stack a lone
point costs 17-67 % more (median 30 %) over fit_survey's 24 compositions and
the three reference fits at their moment starts, on a 2-core Xeon.

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

from .base_distributions import get_base
from .chains import _POS, _QUIET, _REAL, Model, _cdf, _DomainError, _log_density
from .family_transforms import get_family
from .optimizers import _InfeasibleStart, OptimizerConfig, OptResult, maximize

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
        if not self.location and data[0] <= 0:
            raise ValueError("data must exceed the support origin 0 when location is off")
        self.data = data
        self.tie_mask = np.concatenate([[False], np.diff(data) == 0.0])
        self.tied = np.flatnonzero(self.tie_mask)
        self.model = Model((get_family(self.family), get_base(self.base)), self.location)
        self._maps = _transforms(self)
        self._lo, self._hi = np.array(self.model.domains).T

    @property
    def n(self) -> int:
        return self.data.size

    @property
    def m(self) -> int:
        return self.n + 1

    @property
    def k(self) -> int:
        return self.model.k


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


# per open domain: natural -> free and free -> natural maps, and an induced
# parameter's start value (for (0, inf), the reduction-identity point)
_DOMAINS = {
    _POS: (math.log, _exp, 1.0),
    (0.0, 1.0): (sc.logit, lambda psi: float(sc.expit(psi)), 0.5),
    (-1.0, 1.0): (math.atanh, lambda psi: math.tanh(min(max(psi, -20), 20)), 0.0),
    _REAL: (lambda v: v, lambda psi: psi, 0.0),
}


def _transforms(ctx: SpacingContext):
    """Per-coordinate (natural -> free, free -> natural); mu's keeps it below x_(1)."""
    maps = [_DOMAINS[d][:2] for d in ctx.model.domains]
    if ctx.location:
        x1 = float(ctx.data[0])
        maps[-1] = (lambda mu: math.log(x1 - mu), lambda psi: x1 - _exp(psi))
    return maps


def to_free(ctx: SpacingContext, theta):
    return np.array([t[0](float(v)) for t, v in zip(ctx._maps, theta)])


def from_free(ctx: SpacingContext, psi):
    """Natural parameters; every map is clipped, so this never raises."""
    return np.array([t[1](float(v)) for t, v in zip(ctx._maps, psi)])


# --- the objective ---------------------------------------------------------

def _log_spacings(h, ctx: SpacingContext, tie_terms):
    """Tie-corrected log-spacings (length m) on the last axis from the cdf h at
    the sorted data, with ``tie_terms``, the log-density at the tied points,
    in the tied places; -inf where infeasible."""
    ext = np.concatenate([np.zeros(h.shape[:-1] + (1,)), h, np.ones(h.shape[:-1] + (1,))], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(np.maximum(ext[..., 1:] - ext[..., :-1], 0.0))
    if ctx.tied.size:
        # .T indexes the last axis of one row or of a stack at plain indexing's cost
        terms.T[ctx.tied] = tie_terms
    return terms


def _terms(steps, mu, ctx: SpacingContext):
    """``_log_spacings`` of the chain at theta's ``(steps, mu)``."""
    y = ctx.data - mu
    tie_terms = _log_density(steps, y.T[ctx.tied].T).T if ctx.tied.size else None
    return _log_spacings(_cdf(steps, y), ctx, tie_terms)


def _mean_log_spacing(terms, ctx: SpacingContext) -> float:
    """S from one row of log-spacings: -inf unless every term is finite."""
    return float(np.sum(terms) / ctx.m) if np.all(np.isfinite(terms)) else -math.inf


def spacing_sum_terms(theta, ctx: SpacingContext):
    """Per-spacing log terms (length m), tie-corrected; -inf where infeasible."""
    return _terms(*ctx.model.resolve(theta), ctx)


def spacing_value(theta, ctx: SpacingContext) -> float:
    """Mean log-spacing S(theta) in the natural parameterization; -inf where a
    coordinate is out of its domain, a wrong count of them raises."""
    try:
        steps, mu = ctx.model.resolve(theta)
    except _DomainError:
        return -math.inf
    return _mean_log_spacing(_terms(steps, mu, ctx), ctx)


def spacing_objective(theta_free, ctx: SpacingContext) -> float:
    """S(theta) over the unconstrained parameterization; -inf when invalid."""
    return spacing_value(from_free(ctx, theta_free), ctx)


def _spacing_rows(psi_rows, ctx: SpacingContext):
    """``spacing_objective`` at each row of a (B, k) stack, bit for bit, in one
    pass: the rows with every coordinate in its domain become (B, 1)
    parameter columns, and the chain and the tie terms run on (B, n)."""
    thetas = np.array([from_free(ctx, psi) for psi in psi_rows])
    ok = ((ctx._lo < thetas) & (thetas < ctx._hi)).all(axis=1)
    out = np.full(len(thetas), -math.inf)
    cols = tuple(np.ascontiguousarray(thetas[ok].T)[:, :, None])
    with np.errstate(**_QUIET):  # a chain's parameters, such as a/b, may overflow
        steps = ctx.model.steps(cols)
    # mu = 0 as a column, so y has a row per theta also where no map broadcasts
    terms = _terms(steps, cols[-1] if ctx.location else np.zeros_like(cols[0]), ctx)
    with np.errstate(invalid="ignore"):
        out[ok] = np.where(np.isfinite(terms).all(axis=1), np.sum(terms, axis=1) / ctx.m, -math.inf)
    return out


# --- starting values -------------------------------------------------------

# u/(1 - u) families without an identity point (at 1.0, F(x_(n)) = 1) start at
# h(1/2) = 1/2 and, with two parameters, h'(1/2) = 1; gammag2: P(a, 1) = 1/2
_ODDS_STARTS = {
    "gammag2": (1.31425,),
    "gmbetaexpg": (0.610816, 0.387856),
    "weibullextg": (math.log(2.0), 2.0 * math.log(2.0)),
}


# the moment start puts mu0 at x_(1) - sd/n; where S is -inf there, mu0 moves
# to x_(1) - c sd for each c in turn, which spreads the data out over the base
_FALLBACK_SDS = (1.0, 4.0, 16.0)


def _start_theta(ctx: SpacingContext, mu0=None):
    """The moment start: induced values at the reduction point, and the base's
    start rule on the data shifted by mu0 (default x_(1) - sd/n)."""
    fam, dist = ctx.model.specs
    induced = list(_ODDS_STARTS.get(ctx.family, (_DOMAINS[d][2] for d in fam.domains)))
    if mu0 is None:
        mu0 = float(ctx.data[0]) - float(np.std(ctx.data)) / ctx.n if ctx.location else 0.0
    y = ctx.data - mu0
    if np.any(y <= 0):
        # location on, but the data have no spread to put mu0 below x_(1)
        raise ValueError("data must exceed the support origin")
    base_start = list(dist.start(y))
    theta = induced + base_start + ([mu0] if ctx.location else [])
    return np.asarray(theta, dtype=float)


def _starts(ctx: SpacingContext):
    """The moment start, then (location on) the fallback starts, in order;
    for the chisq base the last one matches the mean and the variance: a
    chisq_k has mean k and variance 2k, so mu0 = mean - var/2 and the base's
    start rule, k = mean(y), gives k = var/2."""
    yield _start_theta(ctx)
    if ctx.location:
        sd = float(np.std(ctx.data))
        for c in _FALLBACK_SDS:
            yield _start_theta(ctx, float(ctx.data[0]) - c * sd)
        if ctx.base == "chisq":
            mu0 = float(np.mean(ctx.data)) - float(np.var(ctx.data)) / 2.0
            if mu0 < ctx.data[0]:
                yield _start_theta(ctx, mu0)


def fit(ctx: SpacingContext, config: OptimizerConfig | None = None) -> FitResult:
    """Maximize the spacing objective from the first start where it is finite
    and package the estimate."""
    if config is None:
        config = OptimizerConfig()
    # maximize gives up after one evaluation at an infeasible start; n_evals
    # adds those probes
    for tried, theta0 in enumerate(_starts(ctx), 1):
        try:
            res = maximize(lambda psi: spacing_objective(psi, ctx), to_free(ctx, theta0), config,
                           rows=lambda psi_rows: _spacing_rows(psi_rows, ctx))
            break
        except _InfeasibleStart:
            pass
    else:
        raise ValueError(
            f"infeasible starting point for {ctx.family} x {ctx.base}; "
            f"the spacing objective is -inf at every start tried ({tried})"
        )
    res.n_evals += tried - 1
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

def chi_square_cdf(x, df):
    """Chi-square cdf with df degrees of freedom, x >= 0."""
    return sc.gammainc(df / 2.0, x / 2.0)


def chi_square_quantile(p, df):
    """Chi-square quantile: the x with chi_square_cdf(x, df) = p."""
    return 2.0 * sc.gammaincinv(df / 2.0, p)


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
    p_value = float(sc.gammaincc(n / 2.0, statistic / 2.0)) if statistic >= 0 else 1.0
    return MoranTest(statistic=statistic, critical=critical, p_value=p_value, df=n)
