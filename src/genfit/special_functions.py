"""The one special-function algorithm ``scipy.special`` lacks.

The base and family kernels call ``scipy.special`` directly (``gammaln``,
``betaln``, ``gammainc``, ``gammaincc``, ``gammaincinv``, ``betainc``,
``betaincinv``, ``ndtr``, ``ndtri``, ``ndtri_exp``), with parameters already
checked once where a public function resolves them.  Outside its domain scipy
returns NaN rather than raising; the callers' non-finite rule (see
``base_distributions``) decides what that NaN becomes.

What stays here is the inverse of the upper incomplete gamma function from
the log of its value, which must keep working where ``exp(-l)`` underflows.
"""

from __future__ import annotations

import numpy as np
import scipy.special as sc

__all__ = ["inv_reg_inc_gamma_upper_from_log"]


def inv_reg_inc_gamma_upper_from_log(l, a):
    """The x with Q(a, x) = exp(-l) for l >= 0, a > 0, valid even when
    exp(-l) underflows.

    For representable tail probabilities this defers to the standard inverse;
    deeper in the tail it solves the leading-order asymptotic
    -ln Q(a, x) ~ x - (a-1) ln x + ln Gamma(a) by Newton iteration.
    """
    l, a = np.broadcast_arrays(np.asarray(l, dtype=float), np.asarray(a, dtype=float))
    deep = l >= 600.0
    with np.errstate(over="ignore"):
        out = np.array(sc.gammainccinv(a, np.exp(-np.where(deep, 0.0, l))))
    if deep.any():
        # Newton only where exp(-l) underflows
        ld, ad = l[deep], a[deep]
        target = ld - sc.gammaln(ad)
        x = np.maximum(ld, ad + 2.0)
        for _ in range(60):
            # two correction terms of the asymptotic series for Q(a, x)
            corr = np.log1p((ad - 1.0) / x + (ad - 1.0) * (ad - 2.0) / (x * x))
            f = x - (ad - 1.0) * np.log(x) - corr - target
            df = 1.0 - (ad - 1.0) / x
            x = np.maximum(x - f / np.maximum(df, 0.5), ad + 1.0)
        out[deep] = x
    return out if out.ndim else float(out)
