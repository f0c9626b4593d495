"""Askey-Wilson polynomials: explicit series, recurrence, q-difference operator.

The four-parameter parent family that the bi-lattice families of qortho are
obtained from by truncation.  Only real parameters and real nome
0 < q < 1 are supported.
"""

from __future__ import annotations

from oracles.qseries import SeriesSpec, terminating_series_eval
from qortho.recurrence import monic_coefficients, monic_values, qdifference_residual

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


class AskeyWilsonParams:
    def __init__(self, a, b, c, d, q):
        if not 0 < q < 1:
            raise ValueError("nome q must satisfy 0 < q < 1")
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.q = q

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
    # The recurrence is in the variable 2x.
    rows = [recurrence_ac(p, m) for m in range(n)]
    b, u = monic_coefficients(rows, range(n), range(n), p.a + 1 / p.a, 2)
    return monic_values(b, u, (z + 1 / z) / 2)[-1]


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
    lam = q ** -n * (1 - q ** n) * (1 - p.abcd * q ** (n - 1))
    [[out]] = qdifference_residual(
        lambda x: (1 - p.a * x) * (1 - p.b * x) * (1 - p.c * x) * (1 - p.d * x),
        lambda x: [monic_eval(p, n, x)], [lam], q, [z])
    return out


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
