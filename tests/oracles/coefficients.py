"""The per-entry coefficient formulas, one call per entry, as the package
wrote them before its coefficient passes: qpr and qpk b_n and u_n, the qpr
truncation limits (A_n, C_n) and the q-Racah (A_n, C_n).

A qpk table entry must equal its formula's value bit for bit, and a qpk
table must raise what these, taken b row first and then u row, raise.  A
qpr table is the Askey-Wilson monic map of the truncation limits,
b_n = (a + 1/a - A_n - C_n) / 2 and u_n = A_{n-1} C_n / 4 (``qpr_b_from_limits``
and ``qpr_u_from_limits``), bit for bit, and raises what the limits of
degrees 0..N, taken in order, raise; the closed forms ``qpr_b_coefficient``
and ``qpr_u_coefficient`` are the reference it must agree with to its
working precision."""

from __future__ import annotations

from qortho.connections import QRacahParams
from qortho.para_krawtchouk import ParaKrawtchoukFamily
from qortho.para_racah import ParaRacahFamily, _unpack
from qortho.scalars import typed_float

__all__ = [
    "qpr_b_coefficient",
    "qpr_u_coefficient",
    "limit_recurrence_ac",
    "qpr_b_from_limits",
    "qpr_u_from_limits",
    "qpk_b_coefficient",
    "qpk_u_coefficient",
    "qracah_recurrence_ac",
    "coefficient_table",
]


def qpr_b_coefficient(fam: ParaRacahFamily, n: int):
    """Diagonal recurrence coefficient b_n, 0 <= n <= N."""
    if not 0 <= n <= fam.N:
        raise ValueError("b_n requires 0 <= n <= N")
    a, c, al, q, j = _unpack(fam)
    pw = fam.powers()
    if fam.odd:
        if n == j or n == j + 1:
            w = al if n == j else 1 - al
            mid = (w * (c - a) * (pw[j + 1] - 1) * pw[-j] * (a * c * pw[j] - 1)
                   / (2 * a * c * (q - 1)))
            tail = ((pw[j] - 1) * pw[-j] * (c - a * q) * (a * c * pw[j + 1] - 1)
                    / (2 * a * c * (q * q - 1)))
            return (a + 1 / a) / 2 + mid - tail
        return ((a + c) * (pw[j + 1] + 1) * pw[n] * (a * c * pw[j] + 1)
                / (2 * a * c * (pw[j] + pw[n]) * (pw[j + 1] + pw[n])))
    t1 = ((pw[n] - 1) * (a * c * pw[2 * j] - pw[n]) * (a * pw[j + 1] - c * pw[n])
          / (2 * a * c * (pw[j] + pw[n]) * (pw[2 * j + 1] - pw[2 * n])))
    t2 = ((pw[2 * j] - pw[n]) * (a * c * pw[n] - 1) * (c * pw[j] - a * pw[n + 1])
          / (2 * a * c * (pw[j] + pw[n]) * (pw[2 * j] - pw[2 * n + 1])))
    return (a + 1 / a) / 2 + t1 + t2


def qpr_u_coefficient(fam: ParaRacahFamily, n: int):
    """Sub-diagonal recurrence coefficient u_n, 1 <= n <= N+1.

    u_{N+1} vanishes identically; it is exposed only so the truncation can be
    checked directly.
    """
    if not 1 <= n <= fam.N + 1:
        raise ValueError("u_n requires 1 <= n <= N+1")
    a, c, al, q, j = _unpack(fam)
    pw = fam.powers()
    if fam.odd:
        if n == j + 1:
            return ((1 - al) * al * (c - a) ** 2 * pw[-2 * j]
                    * (pw[j + 1] - 1) ** 2 * (a * c * pw[j] - 1) ** 2
                    / (4 * a * a * c * c * (q - 1) ** 2))
        return ((pw[n] - 1) * (pw[n] - pw[2 * j + 2])
                * (a * c * pw[n] - q) * (pw[n] - a * c * pw[2 * j + 1])
                * (a * pw[n] - c * pw[j + 1]) * (c * pw[n] - a * pw[j + 1])
                / (4 * a * a * c * c * (pw[j + 1] + pw[n]) ** 2
                   * (pw[2 * n] - pw[2 * j + 1]) * (pw[2 * n] - pw[2 * j + 3])))
    if n == j or n == j + 1:
        w = (1 - al) if n == j else al
        return (w * (c - a) * pw[-2 * j] * (pw[j] - 1) * (pw[j + 1] - 1)
                * (a * q - c) * (a * c * pw[j] - 1) * (a * c * pw[j] - q)
                / (4 * a * a * c * c * (q - 1) ** 2 * (q + 1)))
    return ((pw[n] - 1) * (pw[n] - pw[2 * j + 1])
            * (a * c * pw[n] - q) * (pw[n] - a * c * pw[2 * j])
            * (a * pw[n] - c * pw[j]) * (c * pw[n] - a * pw[j + 1])
            / (4 * a * a * c * c * (pw[j] + pw[n]) * (pw[j + 1] + pw[n])
               * (pw[2 * j + 1] - pw[2 * n]) ** 2))


def limit_recurrence_ac(fam: ParaRacahFamily, n: int):
    """Resolved truncation limits of the parent coefficients (A_n, C_n).

    These are the closed-form values the Askey-Wilson A_n and C_n approach
    under the truncating parametrization; the special indices around N/2
    carry the deformation alpha.  b_n and u_n are algebraic combinations of
    these, and the dual-Hahn limit consumes them directly.  A factor
    1 - q^k at k = -1 is written (q - 1) / q.
    """
    if not 0 <= n <= fam.N + 1:
        raise ValueError("limit coefficients require 0 <= n <= N+1")
    a, c, al, q, j = _unpack(fam)
    pw = fam.powers()

    def one_minus(k):
        return (q - 1) / q if k == -1 else 1 - pw[k]

    if fam.odd:
        if n == j:
            A = (al * (1 - a * c * pw[j]) * (c - a) * one_minus(-j - 1)
                 / (a * c * ((q - 1) / q)))
        else:
            A = ((1 - a * c * pw[n]) * (c - a * pw[n - j]) * one_minus(n - 2 * j - 1)
                 / (a * c * one_minus(2 * n - 2 * j - 1) * (1 + pw[n - j])))
        if n == j + 1:
            C = ((1 - al) * (1 - pw[j + 1]) * (a - c) * (a * c - pw[-j])
                 / (a * c * (1 - q)))
        else:
            C = ((1 - pw[n]) * (a - c * pw[n - j - 1]) * (a * c - pw[n - 2 * j - 1])
                 / (a * c * (1 + pw[n - j - 1]) * one_minus(2 * n - 2 * j - 1)))
        return A, C
    if n == j:
        A = al * (1 - a * c * pw[j]) * (1 - (a / c) * q) * one_minus(-j) / (a * (1 - q))
        C = ((1 - al) * a * (1 - pw[j]) * (1 - (c / a) / q) * (1 - pw[-j] / (a * c))
             / ((q - 1) / q))
        return A, C
    A = (one_minus(n - j) * (1 - a * c * pw[n]) * (1 - (a / c) * pw[n - j + 1])
         * one_minus(n - 2 * j)
         / (a * (1 - pw[2 * n - 2 * j]) * one_minus(2 * n - 2 * j + 1)))
    C = (a * (1 - pw[n]) * (1 - (c / a) * pw[n - j - 1]) * (1 - pw[n - 2 * j] / (a * c))
         * one_minus(n - j)
         / ((1 - pw[2 * n - 2 * j - 1]) * (1 - pw[2 * n - 2 * j])))
    return A, C


def qpr_b_from_limits(fam: ParaRacahFamily, n: int):
    """b_n = (a + 1/a - A_n - C_n) / 2, the monic map in X = 2x."""
    A, C = limit_recurrence_ac(fam, n)
    return (fam.a + 1 / fam.a - A - C) / 2


def qpr_u_from_limits(fam: ParaRacahFamily, n: int):
    """u_n = A_{n-1} C_n / 4, the monic map in X = 2x."""
    return limit_recurrence_ac(fam, n - 1)[0] * limit_recurrence_ac(fam, n)[1] / 4


def qpk_b_coefficient(fam: ParaKrawtchoukFamily, n: int):
    if not 0 <= n <= fam.N:
        raise ValueError("b_n requires 0 <= n <= N")
    D, al, q, j = fam.Delta, fam.alpha, fam.q, fam.j
    pw = fam.powers()
    if fam.odd:
        if n == j or n == j + 1:
            w = al if n == j else 1 - al
            return (D - w * (1 - pw[j + 1]) * (D - 1) / (1 - q)
                    + q * (1 - pw[j]) * (D * q - 1) / (1 - q * q))
        return (pw[n + j] * (1 + pw[j + 1]) * (1 + D)
                / ((pw[j] + pw[n]) * (pw[j + 1] + pw[n])))
    # The closed form D - t1 + t2 cancels to about q^(j-1) (1 + D q), a loss
    # of j log10(1/q) digits; over one denominator the same rational function
    # reads J Q (A - B) / (...), with A >= 2B for 1 < D < 1/q.
    J, Q = pw[j], pw[n]
    A = (J - Q) ** 2 * (1 + pw[j + 1] + D * q * (1 + J))
    B = J * Q * (1 - q) * (D - 1 + J * (1 - D * q))
    return J * Q * (A - B) / ((pw[2 * j] - pw[2 * n + 1]) * (pw[2 * j + 1] - pw[2 * n]))


def qpk_u_coefficient(fam: ParaKrawtchoukFamily, n: int):
    if not 1 <= n <= fam.N + 1:
        raise ValueError("u_n requires 1 <= n <= N+1")
    D, al, q, j = fam.Delta, fam.alpha, fam.q, fam.j
    pw = fam.powers()
    # Off the middle, each difference of powers is divided by its larger
    # term, so no product leaves the range of the result (the paper's reach
    # q^(4N)); k is the distance from the middle, one form for both sides.
    if fam.odd:
        if n == j + 1:
            return al * (1 - al) * (D - 1) ** 2 * (1 - pw[j + 1]) ** 2 / (1 - q) ** 2
        k = abs(n - j - 1)
        return (pw[2 * k - 1] * (1 - pw[n]) * (pw[2 * j + 2 - n] - 1) * (pw[k] - D)
                * (1 - D * pw[k]) / ((1 + pw[k]) ** 2 * (1 - pw[2 * k - 1]) * (1 - pw[2 * k + 1])))
    if n == j or n == j + 1:
        w = (1 - al) if n == j else al
        return (w * (1 - pw[j]) * (1 - pw[j + 1]) * (D - 1) * (1 - q * D)
                / ((1 - q) ** 2 * (1 + q)))
    k = max(j - n, n - j - 1)
    return (pw[2 * k] * (pw[n] - 1) * (pw[2 * j + 1 - n] - 1) * (D - pw[k])
            * (1 - D * pw[k + 1]) / ((1 + pw[k]) * (1 + pw[k + 1]) * (1 - pw[2 * k + 1]) ** 2))


def qracah_recurrence_ac(p: QRacahParams, n: int):
    """A_n and C_n of the q-Racah three-term recurrence."""
    if n < 0:
        raise ValueError("n must be non-negative")
    al, be, ga, de, q = p.alpha, p.beta, p.gamma, p.delta, p.q
    ab = al * be
    den_a = (1 - ab * q ** (2 * n + 1)) * (1 - ab * q ** (2 * n + 2))
    den_c = (1 - ab * q ** (2 * n)) * (1 - ab * q ** (2 * n + 1))
    guard = typed_float(1e-13, q)
    if abs(den_a) < guard or abs(den_c) < guard:
        raise ArithmeticError("q-Racah recurrence denominator vanishes at n = %d" % n)
    A = ((1 - al * q ** (n + 1)) * (1 - ab * q ** (n + 1))
         * (1 - be * de * q ** (n + 1)) * (1 - ga * q ** (n + 1)) / den_a)
    C = (q * (1 - q ** n) * (1 - be * q ** n)
         * (ga - ab * q ** n) * (de - al * q ** n) / den_c)
    return A, C


def coefficient_table(fam) -> tuple:
    """(b_0..b_N, u_1..u_N) of either kind: for qpk one formula call per
    entry, the b row first; for qpr the limits of degrees 0..N in order,
    then their monic map."""
    N = fam.N
    if isinstance(fam, ParaRacahFamily):
        for n in range(N + 1):  # what a qpr table raises, it raises here
            limit_recurrence_ac(fam, n)
        b_coefficient, u_coefficient = qpr_b_from_limits, qpr_u_from_limits
    else:
        b_coefficient, u_coefficient = qpk_b_coefficient, qpk_u_coefficient
    b = [b_coefficient(fam, n) for n in range(N + 1)]
    return b, [u_coefficient(fam, n) for n in range(1, N + 1)]
