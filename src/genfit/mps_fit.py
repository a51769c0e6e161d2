"""Maximum product of spacings estimation.

The estimator maximizes the mean log-spacing

    S(theta) = (1/m) sum_i log[ F(x_(i)) - F(x_(i-1)) ],   m = n + 1,

with the boundary convention F(x_(0)) = 0, F(x_(m)) = 1.  Tied observations,
whose spacing is analytically zero, contribute the log-density at the tied
point instead (the Cheng-Stephens convention).  All parameter constraints are
removed by smooth reparameterization so every optimizer in the menu runs
unconstrained; in particular the location satisfies mu < x_(1) by
construction.

``SpacingContext`` builds the composition's ``chains.Model`` once.  A fit
evaluates S only through ``_spacing_rows``, on a (B, k) stack of free
parameters: under Nelder-Mead, each step's points of all the runs in
lockstep (a simplex, a shrink or one point per run); under BFGS and CG, a
point and its gradient's 2k points, the runs called in turn on the calling
thread; under simulated annealing, one point.  The stack
maps to natural parameters in one pass, is masked on ``Model.domains``, and
its chain, built by ``Model.steps``, runs from y = x - mu for the cdf, or,
where the data has ties, for the cdf and the log-density from one walk
(``chains._cdf_log_density``), unless the untied points are many: there a
second walk over the tied points costs less.  One row is masked and summed
on floats.  The
public ``spacing_value`` takes a natural theta through ``Model.resolve``,
whose count error raises and whose domain error reads as -inf.

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
from .chains import _POS, _QUIET, _REAL, Model, _cdf, _cdf_log_density, _DomainError, _log_density
from .family_transforms import get_family
from .optimizers import _InfeasibleStart, OptimizerConfig, OptResult, maximize

__all__ = [
    "SpacingContext",
    "FitResult",
    "MoranTest",
    "spacing_value",
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
        if data[0] == data[-1]:
            # no room for mu below x_(1), and with the location off no maximum of S: the
            # ties' log-density grows without bound as the density spikes there
            raise ValueError(f"data must not all be equal (every one is {float(data[0])!r})")
        self.data = data
        self.tied = np.flatnonzero(np.diff(data) == 0.0) + 1
        self.model = Model((get_family(self.family), get_base(self.base)), self.location)
        self._lo, self._hi = np.array(self.model.domains).T
        # the columns of each domain with a map of its own; mu's is x_(1) - e^psi
        shape = self.model.domains[: self.k - self.location]
        self._maps = [(np.flatnonzero([d == dom for d in shape]), fn) for dom, (_, fn, _) in _DOMAINS.items()
                      if fn and dom in shape]

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

_CLIP = 700.0  # e^psi is clipped to e^+-700, so that it neither overflows nor reaches 0

# per open domain: the natural -> free map, the free -> natural map on its
# columns of a stack (None for (0, inf), whose e^psi every column takes
# first), and an induced parameter's start value (for (0, inf), the
# reduction-identity point)
_DOMAINS = {
    _POS: (math.log, None, 1.0),
    (0.0, 1.0): (sc.logit, sc.expit, 0.5),
    (-1.0, 1.0): (math.atanh, np.tanh, 0.0),
    _REAL: (float, lambda psi: psi, 0.0),
}


def to_free(ctx: SpacingContext, theta):
    psi = [_DOMAINS[d][0](float(v)) for d, v in zip(ctx.model.domains, theta)]
    if ctx.location:  # mu = x_(1) - e^psi
        psi[-1] = math.log(float(ctx.data[0]) - float(theta[-1]))
    return np.array(psi)


def _natural(psi, ctx: SpacingContext):
    """The natural parameters of each row of a (B, k) stack of free ones; e^psi
    is clipped, so no map overflows or raises, and a NaN stays NaN."""
    theta = np.exp(np.minimum(np.maximum(psi, -_CLIP), _CLIP))
    for cols, fn in ctx._maps:
        theta[:, cols] = fn(psi[:, cols])
    if ctx.location:
        theta[:, -1] = ctx.data[0] - theta[:, -1]
    return theta


# --- the objective ---------------------------------------------------------

def _log_spacings(ctx: SpacingContext, h, tie_terms=None):
    """Tie-corrected log-spacings (length m) on the last axis from the cdf h at
    the sorted data, with ``tie_terms``, the log-density at the tied points on
    the first axis, in the tied places; -inf where infeasible."""
    # .T indexes the last axis of one row or of a stack at plain indexing's cost
    d = np.empty(h.shape[:-1] + (ctx.m,))
    dt, ht = d.T, h.T
    dt[0], dt[-1] = ht[0], 1.0 - ht[-1]
    np.subtract(ht[1:], ht[:-1], out=dt[1:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(np.maximum(d, 0.0, out=d), out=d)
    if ctx.tied.size:
        dt[ctx.tied] = tie_terms
    return d


# one walk adds the log-density at the untied points, a second walk its own
# call overhead and a full walk at the tied ones: on a 2-core Xeon, B rows of n
# points with t ties take one walk the faster while B (n - 4t) < _ONE_WALK
_ONE_WALK = 768


def _terms(steps, mu, ctx: SpacingContext):
    """``_log_spacings`` of the chain at theta's ``(steps, mu)``: the cdf
    alone, or with ties the cdf and the log-density, from one walk where the
    untied points are few, else the log-density from a second walk over the
    tied points."""
    y = ctx.data - mu
    if not ctx.tied.size:
        return _log_spacings(ctx, _cdf(steps, y))
    if (ctx.n - 4 * ctx.tied.size) * (y.size // ctx.n) < _ONE_WALK:
        h, log_density = _cdf_log_density(steps, y)
        return _log_spacings(ctx, h, log_density.T[ctx.tied])
    return _log_spacings(ctx, _cdf(steps, y), _log_density(steps, y.T[ctx.tied].T).T)


def _mean_log_spacing(terms, ctx: SpacingContext, feasible=True):
    """S from the log-spacings on the last axis, of one row or of each row of
    a stack: -inf unless the row is ``feasible`` and every term is finite,
    that is, unless their sum is."""
    s = terms.sum(axis=-1) / ctx.m
    return np.where(feasible & (s < np.inf), s, -np.inf)


def spacing_value(theta, ctx: SpacingContext) -> float:
    """Mean log-spacing S(theta) in the natural parameterization; -inf where a
    coordinate is out of its domain, a wrong count of them raises."""
    try:
        steps, mu = ctx.model.resolve(theta)
    except _DomainError:
        return -math.inf
    return float(_mean_log_spacing(_terms(steps, mu, ctx), ctx))


def _spacing_rows(psi_rows, ctx: SpacingContext):
    """S at each row of a (B, k) stack of free parameters, in one pass, and
    -inf where a coordinate is out of its domain.  The chain takes the
    parameters as (B, 1) columns and runs on (B, n), or, for one row, as
    floats on (n,), which cost less, and S is finished on floats; a row out
    of its domain runs too (no map raises) and is masked at the end."""
    theta = _natural(np.asarray(psi_rows, dtype=float), ctx)
    if len(theta) == 1:
        cols = theta[0].tolist()
        s = float(_terms(ctx.model.steps(cols), cols[-1] if ctx.location else 0.0, ctx).sum()) / ctx.m
        ok = s < math.inf and all(lo < t < hi for t, (lo, hi) in zip(cols, ctx.model.domains))
        return np.array([s if ok else -math.inf])
    ok = np.logical_and.reduce((ctx._lo < theta) & (theta < ctx._hi), axis=1)
    cols = list(np.ascontiguousarray(theta.T)[:, :, None])
    with np.errstate(**_QUIET):  # a parameter column, such as a/b, may overflow
        steps = ctx.model.steps(cols)
    # mu = 0 as a column, so y has a row per theta also where no map broadcasts
    return _mean_log_spacing(_terms(steps, cols[-1] if ctx.location else np.zeros_like(cols[0]), ctx), ctx, ok)


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
    if not mu0 < ctx.data[0]:
        raise ValueError(f"mu0 = {mu0!r} is not below x_(1)")
    base_start = list(dist.start(ctx.data - mu0))
    theta = induced + base_start + ([mu0] if ctx.location else [])
    return np.asarray(theta, dtype=float)


def _starts(ctx: SpacingContext):
    """The moment start, then (location on) the fallback starts, in order,
    each only where its mu0 is below x_(1): where the spread is small against
    the spacing of the doubles at x_(1), mu0 may round onto it.  For the chisq
    base the last one matches the mean and the variance: a chisq_k has mean k
    and variance 2k, so mu0 = mean - var/2 and the base's start rule,
    k = mean(y), gives k = var/2."""
    if not ctx.location:
        yield _start_theta(ctx)
        return
    x1, sd = float(ctx.data[0]), float(np.std(ctx.data))
    mu0s = [x1 - sd / ctx.n] + [x1 - c * sd for c in _FALLBACK_SDS]
    if ctx.base == "chisq":
        mu0s.append(float(np.mean(ctx.data)) - float(np.var(ctx.data)) / 2.0)
    yield from (_start_theta(ctx, mu0) for mu0 in mu0s if mu0 < x1)


def fit(ctx: SpacingContext, config: OptimizerConfig | None = None) -> FitResult:
    """Maximize the spacing objective from the first start where it is finite
    and package the estimate."""
    if config is None:
        config = OptimizerConfig()
    # maximize gives up after one evaluation at an infeasible start; n_evals
    # adds those probes
    tried = 0
    for tried, theta0 in enumerate(_starts(ctx), 1):
        try:
            res = maximize(lambda psi_rows: _spacing_rows(psi_rows, ctx), to_free(ctx, theta0), config)
            break
        except _InfeasibleStart:
            pass
    else:
        if not tried:
            raise ValueError(f"no start for {ctx.family} x {ctx.base}: the data's spread is too small to put mu0 "
                             f"below x_(1) = {float(ctx.data[0])!r}")
        raise ValueError(
            f"infeasible starting point for {ctx.family} x {ctx.base}; "
            f"the spacing objective is -inf at every start tried ({tried})"
        )
    res.n_evals += tried - 1
    theta_hat = _natural(res.x_opt[None], ctx)[0]
    s_opt = res.f_opt
    return FitResult(
        theta_hat=theta_hat,
        s_opt=s_opt,
        moran=-ctx.m * s_opt,
        convergence=res,
        k=ctx.k,
    )


# --- Moran's statistic and its chi-square approximation --------------------

def chi_square_quantile(p, df):
    """Chi-square quantile: the x with P(df/2, x/2) = p."""
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
