"""The one special-function algorithm ``scipy.special`` lacks.

The base and family kernels call ``scipy.special`` directly (``gammaln``,
``betaln``, ``gammainc``, ``gammaincc``, ``gammaincinv``, ``betainc``,
``betaincinv``, ``ndtr``, ``ndtri``, ``ndtri_exp``), with parameters already
checked once where a public function resolves them.  Outside its domain scipy
returns NaN rather than raising; the callers' non-finite rule (see
``base_distributions``) decides what that NaN becomes.

What stays here is the upper incomplete gamma function where scipy's
underflows: ln Q(a, x) by its asymptotic series, and the inverse from the
log of the value, which must keep working where ``exp(-l)`` underflows.
"""

from __future__ import annotations

import numpy as np
import scipy.special as sc

__all__ = ["inv_reg_inc_gamma_upper_from_log"]


_TERMS = np.arange(1.0, 41.0)


def _log_q_series(x, a):
    """ln of Q(a, x) e^x x^(1 - a) Gamma(a) by its asymptotic series
    1 + sum_j prod_{i <= j} (a - i)/x, each element's terms kept while they
    shrink, at most 40 of them."""
    r = (a - _TERMS.reshape((-1,) + (1,) * np.broadcast(x, a).nd)) / x
    shrinking = np.logical_and.accumulate(np.abs(r) < 1.0)
    return np.log1p(np.sum(np.where(shrinking, np.cumprod(r, axis=0), 0.0), axis=0))


def _log_q_asymptote(x, a):
    """ln Q(a, x) by its asymptotic series, for where Q has underflowed."""
    xs = np.maximum(x, a + 1.0)
    return -xs + (a - 1.0) * np.log(xs) - sc.gammaln(a) + _log_q_series(xs, a)


def inv_reg_inc_gamma_upper_from_log(l, a):
    """The x with Q(a, x) = exp(-l) for l >= 0, a > 0, valid even when
    exp(-l) underflows: scipy's inverse for representable tail probabilities,
    and deeper Newton iteration on ``_log_q_asymptote(x, a) = -l``."""
    l, a = np.broadcast_arrays(np.asarray(l, dtype=float), np.asarray(a, dtype=float))
    deep = l >= 600.0
    with np.errstate(over="ignore"):
        out = np.array(sc.gammainccinv(a, np.exp(-np.where(deep, 0.0, l))))
    if deep.any():
        # Newton only where exp(-l) underflows
        ld, ad = l[deep], a[deep]
        x = np.maximum(ld, ad + 2.0)
        for _ in range(60):
            f = -_log_q_asymptote(x, ad) - ld
            df = 1.0 - (ad - 1.0) / x
            x = np.maximum(x - f / np.maximum(df, 0.5), ad + 1.0)
        out[deep] = x
    return out if out.ndim else float(out)
