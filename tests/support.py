"""Shared oracles and helpers for the test suite.

The truncation-substitution oracle evaluates the raw parent-family
recurrence coefficients at an explicit tiny limit parameter t under mpmath,
instead of using the resolved closed forms; it is the independent route the
coefficient tables are checked against.
"""

import mpmath

from qortho import askey_wilson

# Tiny but nonzero limit parameter; the weights e1, e2 are scaled down so the
# first-order limit error e*t*log(q) sits far below the 40-digit comparison.
ORACLE_T = mpmath.mpf("1e-30")
ORACLE_E_SCALE = mpmath.mpf("1e-12")
ORACLE_DPS = 120


def truncated_parent_params(fam):
    """Raw parent parameters b = a^-1 q^(-j + e1 t), d = c^-1 q^(-j(-1) + e2 t).

    Must be called inside an mpmath working-precision context; the family's
    a, c, alpha, q are converted to the current precision.
    """
    a = mpmath.mpf(fam.a)
    c = mpmath.mpf(fam.c)
    q = mpmath.mpf(fam.q)
    alpha = mpmath.mpf(fam.alpha)
    j = fam.j
    e1 = alpha * ORACLE_E_SCALE
    e2 = (1 - alpha) * ORACLE_E_SCALE
    b = q ** (-j + e1 * ORACLE_T) / a
    d_exp = -j if fam.odd else -j + 1
    d = q ** (d_exp + e2 * ORACLE_T) / c
    return askey_wilson.AskeyWilsonParams(a=a, b=b, c=c, d=d, q=q)


def oracle_recurrence_coefficients(fam, n):
    """(b_n, u_n) from the substitution oracle; u_0 is returned as 0."""
    p = truncated_parent_params(fam)
    A_n, C_n = askey_wilson.recurrence_ac(p, n, singular_tol=0.0)
    b = (p.a + 1 / p.a - A_n - C_n) / 2
    if n == 0:
        return b, mpmath.mpf(0)
    A_prev, _ = askey_wilson.recurrence_ac(p, n - 1, singular_tol=0.0)
    return b, A_prev * C_n / 4


def eval_recurrence_with_peak(b_coefficient, u_coefficient, fam, n, x):
    """Monic P_n(x) together with the largest intermediate magnitude.

    A reference loop, independent of the library's recurrence engine, over
    the coefficient functions b_coefficient(fam, m) and u_coefficient(fam, m)
    (u_0 is taken as the float 0.0).  The peak is the natural roundoff scale
    for near-zero values such as the characteristic polynomial at its own
    roots.
    """
    prev, cur = 0.0, 1.0
    peak = 1.0
    for m in range(n):
        b = b_coefficient(fam, m)
        u = 0.0 if m == 0 else u_coefficient(fam, m)
        cur, prev = (x - b) * cur - u * prev, cur
        peak = max(peak, abs(cur))
    return cur, peak
