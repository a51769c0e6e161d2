"""The gamma-function algorithms ``scipy.special`` lacks, for the gamma cdf
map GP of ``chains``: the log of the gamma density at a large shape, where
the terms of its plain form cancel; ln Q(a, x) where scipy's upper
incomplete gamma function underflows; and the inverse from the log of Q,
which must keep working where ``exp(-l)`` underflows.
"""

from __future__ import annotations

import numpy as np
import scipy.special as sc

__all__ = ["inv_reg_inc_gamma_upper_from_log"]


def _gamma_log_pdf(lt, t, a):
    """ln of the gamma density t^(a - 1) e^-t / Gamma(a) at lt = ln t.  From
    a = 16 up, where those terms (each about a ln a) cancel, it is Loader's
    (2000) saddle-point form -x bd - stirlerr(x) - ln sqrt(2 pi x), x = a - 1,
    with bd = d - ln(1 + d) at d = (t - x)/x: near t = x by its series in
    v = d/(2 + d), and with ln(t/x) from lt where t/x is below the doubles."""
    plain = np.where(a == 1.0, 0.0, (a - 1.0) * lt) - t - sc.gammaln(a)
    if not np.any(a >= 16.0):
        return plain
    x = np.maximum(a, 16.0) - 1.0
    d = (t - x) / x
    v = d / (2.0 + d)
    vv = v * v
    ln_r = np.where(t / x > 1e-300, np.log(t / x), lt - np.log(x))
    bd = np.where(vv < 0.01, d * v - 2.0 * v * vv * np.polyval(1.0 / np.arange(17.0, 2.0, -2.0), vv), d - ln_r)
    stirlerr = np.polyval([1.0 / 1188, -1.0 / 1680, 1.0 / 1260, -1.0 / 360, 1.0 / 12], x**-2) / x
    return np.where(a < 16.0, plain, -x * bd - stirlerr - 0.5 * np.log(2.0 * np.pi * x))


def _log_q_cf(x, a):
    """ln of Q(a, x) Gamma(a) e^x x^(1 - a), for x > a + 1, by Legendre's
    continued fraction (modified Lentz); each element stops once its own
    factor is 1 to the last bit (a NaN counts as done), all of them after
    200 terms, so an element's value does not depend on the others in the
    call; 0 at x = +inf.  Where Q < e^-30 that takes at most 25 terms."""
    b = x + 1.0 - a
    c, d = np.inf, 1.0 / b
    h = d
    live = True
    for i in range(1, 200):
        an = i * (a - i)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        cd = c * d
        h = np.where(live, h * cd, h)
        live = live & (np.abs(cd - 1.0) > 2e-16)
        if not np.any(live):
            break
    return np.where(x == np.inf, 0.0, np.log(x * h))


def inv_reg_inc_gamma_upper_from_log(l, a):
    """The x with Q(a, x) = exp(-l) for l >= 0, a > 0, valid even when
    exp(-l) underflows: scipy's inverse for representable tail probabilities,
    and deeper Newton iteration on ln Q(a, x) = -l."""
    l, a = np.broadcast_arrays(np.asarray(l, dtype=float), np.asarray(a, dtype=float))
    deep = l >= 600.0
    with np.errstate(over="ignore"):
        out = np.array(sc.gammainccinv(a, np.exp(-np.where(deep, 0.0, l))))
    if deep.any():
        # Newton on -ln Q(a, x) = l only where exp(-l) underflows, from a start
        # right of the root; the slope of -ln Q is the hazard 1/(x K).  Each
        # element stops at its own converged step
        ld, ad = l[deep], a[deep]
        x = ad + 1.0 + ld + np.sqrt(2.0 * ad * ld)
        live = np.ones(x.shape, dtype=bool)
        for _ in range(60):
            cf = _log_q_cf(x[live], ad[live])
            step = (_gamma_log_pdf(np.log(x[live]), x[live], ad[live]) + cf + ld[live]) * np.exp(cf)
            x[live] = np.maximum(x[live] + step, ad[live] + 1.0)
            live[live] = np.abs(step) > 1e-15 * x[live]
            if not live.any():
                break
        out[deep] = x
    return out if out.ndim else float(out)
