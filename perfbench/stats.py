"""Harrell-Davis quantile estimator.

The sample median of a few dozen operations whose costs fall in clusters
jumps between clusters from run to run; the Harrell-Davis estimate
(Biometrika 69, 1982) weights every order statistic by a beta distribution
centred on the quantile, which smooths those jumps.  For thousands of
samples it agrees with the sample quantile.
"""

from __future__ import annotations

import math

_TINY = 1e-300


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 100000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # Outside twelve standard deviations of the beta law the weights vanish.
    spread = 12 * math.sqrt(p * (1 - p) / (n + 2))
    lo = max(0, math.floor((p - spread) * n))
    hi = min(n, math.ceil((p + spread) * n))
    cdf = [_beta_cdf(a, b, i / n) for i in range(lo, hi + 1)]
    return sum((cdf[k + 1] - cdf[k]) * xs[lo + k] for k in range(hi - lo))
