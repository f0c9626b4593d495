"""Askey-Wilson polynomials: explicit series, recurrence, q-difference operator.

The four-parameter parent family that the bi-lattice families in this package
are obtained from by truncation.  Only real parameters and real nome
0 < q < 1 are supported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qseries import SeriesSpec, terminating_series_eval
from .recurrence import monic_values

__all__ = [
    "AskeyWilsonParams",
    "RecurrenceSingularityError",
    "recurrence_ac",
    "explicit_eval",
    "monic_eval",
    "qdiff_residual",
    "truncation_check",
]

_TRUNCATION_TOL = 1e-12


class RecurrenceSingularityError(ArithmeticError):
    """A recurrence denominator 1 - abcd q^m vanished.

    For parameter sets with abcd = q^(1-N) this fires for n near N/2; it is
    the signal that the family needs a resolved (truncated) parametrization.
    """

    def __init__(self, n):
        self.n = n
        super().__init__("recurrence coefficients singular at n = %d" % n)


@dataclass(frozen=True)
class AskeyWilsonParams:
    a: float
    b: float
    c: float
    d: float
    q: float

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise ValueError("nome q must satisfy 0 < q < 1")

    @property
    def abcd(self):
        return self.a * self.b * self.c * self.d


def recurrence_ac(p: AskeyWilsonParams, n: int, singular_tol: float = _TRUNCATION_TOL):
    """Coefficients (A_n, C_n) of the three-term recurrence.

    C_0 is identically zero and is returned without evaluating its printed
    expression, which can degenerate to 0/0 for truncated parameter sets.
    ``singular_tol`` is the relative guard on the 1 - abcd q^m denominators;
    pass 0 to disable the guard (useful when probing near-singular limits at
    extended precision).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    a, q = p.a, p.q
    abcd = p.abcd
    d_prev = 1 - abcd * q ** (2 * n - 2)
    d_mid = 1 - abcd * q ** (2 * n - 1)
    d_next = 1 - abcd * q ** (2 * n)
    checked = (d_mid, d_next) if n == 0 else (d_prev, d_mid, d_next)
    for val in checked:
        if abs(val) <= singular_tol:
            raise RecurrenceSingularityError(n)
    A = ((1 - p.a * p.b * q ** n) * (1 - p.a * p.c * q ** n)
         * (1 - p.a * p.d * q ** n) * (1 - abcd * q ** (n - 1))
         / (a * d_mid * d_next))
    if n == 0:
        return A, 0.0
    C = (a * (1 - q ** n) * (1 - p.b * p.c * q ** (n - 1))
         * (1 - p.b * p.d * q ** (n - 1)) * (1 - p.c * p.d * q ** (n - 1))
         / (d_prev * d_mid))
    return A, C


def explicit_eval(p: AskeyWilsonParams, n: int, z):
    """W_n at x = (z + 1/z)/2 through the terminating hypergeometric sum."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if z == 0:
        raise ValueError("z must be nonzero")
    q = p.q
    num = (q ** -n, p.abcd * q ** (n - 1), p.a * z, p.a / z)
    den = (p.a * p.b, p.a * p.c, p.a * p.d, q)
    return terminating_series_eval(SeriesSpec(num, den, q, q, truncation=n))


def monic_eval(p: AskeyWilsonParams, n: int, z):
    """Monic W-tilde_n by forward recurrence from W_{-1} = 0, W_0 = 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if z == 0:
        raise ValueError("z must be nonzero")
    b, u = [], []
    prev_A = None
    for m in range(n):
        A, C = recurrence_ac(p, m)
        b.append((p.a + 1 / p.a - A - C) / 2)
        u.append(0.0 if m == 0 else prev_A * C / 4)
        prev_A = A
    return monic_values(b, u, (z + 1 / z) / 2)[-1]


def _shift_coefficient(p: AskeyWilsonParams, z):
    z2 = z * z
    den = (1 - z2) * (1 - p.q * z2)
    if abs(den) < 1e-12:
        raise ValueError("evaluation point too close to a shift-operator pole")
    return ((1 - p.a * z) * (1 - p.b * z) * (1 - p.c * z) * (1 - p.d * z)) / den


def qdiff_residual(p: AskeyWilsonParams, n: int, z):
    """LHS - RHS of the q-difference equation, plus the operator scale.

    The shift operators act by z -> q z and z -> z/q; the conjugate
    coefficient is the same rational function evaluated at 1/z, so the
    identity can be probed at real z off the unit circle as well.  The
    identity is normalization-invariant, so the polynomial values come from
    the monic recurrence, which stays well conditioned near polynomial
    zeros where the terminating sum cancels badly.
    Returns ``(residual, scale)`` with scale the largest term magnitude.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    q = p.q
    coef_up = _shift_coefficient(p, z)
    coef_dn = _shift_coefficient(p, 1 / z)
    w_up = monic_eval(p, n, q * z)
    w_mid = monic_eval(p, n, z)
    w_dn = monic_eval(p, n, z / q)
    lam = q ** -n * (1 - q ** n) * (1 - p.abcd * q ** (n - 1))
    lhs = lam * w_mid
    t_up = coef_up * w_up
    t_mid = (coef_up + coef_dn) * w_mid
    t_dn = coef_dn * w_dn
    residual = lhs - (t_up - t_mid + t_dn)
    scale = max(abs(lhs), abs(t_up), abs(t_mid), abs(t_dn))
    return residual, scale


def truncation_check(p: AskeyWilsonParams, N: int, tol: float = _TRUNCATION_TOL) -> str:
    """Which truncation mechanism holds at degree N.

    Returns ``"qracah"`` when one of the pair products ab, ac, ad, bc, bd, cd
    equals q**-N within the relative tolerance, ``"singular"`` when
    abcd = q**(1-N), and ``"none"`` otherwise.  The pair products are checked
    first: they dominate when both conditions happen to hold.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    q = p.q
    pairs = (p.a * p.b, p.a * p.c, p.a * p.d, p.b * p.c, p.b * p.d, p.c * p.d)
    for prod in pairs:
        if abs(prod * q ** N - 1) <= tol:
            return "qracah"
    if abs(p.abcd * q ** (N - 1) - 1) <= tol:
        return "singular"
    return "none"
