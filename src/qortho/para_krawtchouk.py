"""q-para-Krawtchouk polynomials: the exponential bi-lattice specialization.

Obtained from the biexponential family by sending the product a*c to
infinity with the ratio Delta = a/c held fixed, after rescaling the variable
by theta/(2a).  The polynomials are defined here by their own closed-form
recurrence coefficients; the limit itself is exercised only by tests.
"""

from __future__ import annotations

import math

from .para_racah import DegenerateFamilyError
from .qseries import qpochhammer
from .recurrence import (_DEGENERATE_TOL, BiLatticeFamily, LatticeWeights,
                         TridiagonalSystem, interleave)

__all__ = [
    "ParaKrawtchoukFamily",
    "b_coefficient",
    "u_coefficient",
    "lattice_points",
    "eval_recurrence",
    "weights",
]


class ParaKrawtchoukFamily(BiLatticeFamily):
    """Parameter set {Delta, alpha, q, N} on the grid Delta q^s / q^s.

    The inherited positivity region is q < Delta < 1/q with Delta != 1 for
    odd N and 1 < Delta < 1/q for even N; construction only enforces the
    structural constraints.
    """

    _fields = ("Delta", "alpha", "q", "N")

    def __init__(self, Delta, alpha, q, N: int):
        self._check_shared(alpha, q, N)
        if not Delta > 0:
            raise ValueError("Delta must be a positive real")
        if not Delta < math.inf:
            raise ValueError("Delta must be finite")
        fields = self.__dict__
        fields["Delta"] = Delta
        fields["alpha"] = alpha
        fields["q"] = q
        fields["N"] = N

    @property
    def degenerate(self) -> bool:
        return abs(self.Delta - 1) <= _DEGENERATE_TOL


def b_coefficient(fam: ParaKrawtchoukFamily, n: int):
    if not 0 <= n <= fam.N:
        raise ValueError("b_n requires 0 <= n <= N")
    D, al, q, j = fam.Delta, fam.alpha, fam.q, fam.j
    if fam.odd:
        if n == j or n == j + 1:
            w = al if n == j else 1 - al
            return (D - w * (1 - q ** (j + 1)) * (D - 1) / (1 - q)
                    + q * (1 - q ** j) * (D * q - 1) / (1 - q * q))
        return (q ** (n + j) * (1 + q ** (j + 1)) * (1 + D)
                / ((q ** j + q ** n) * (q ** (j + 1) + q ** n)))
    t1 = (q ** (2 * j) * (q ** n - 1) * (q ** n - D * q ** (j + 1))
          / ((q ** j + q ** n) * (q ** (2 * j + 1) - q ** (2 * n))))
    t2 = (q ** n * (q ** (2 * j) - q ** n) * (q ** j - D * q ** (n + 1))
          / ((q ** j + q ** n) * (q ** (2 * j) - q ** (2 * n + 1))))
    return D - t1 + t2


def u_coefficient(fam: ParaKrawtchoukFamily, n: int):
    if not 1 <= n <= fam.N + 1:
        raise ValueError("u_n requires 1 <= n <= N+1")
    D, al, q, j = fam.Delta, fam.alpha, fam.q, fam.j
    if fam.odd:
        if n == j + 1:
            return al * (1 - al) * (D - 1) ** 2 * (1 - q ** (j + 1)) ** 2 / (1 - q) ** 2
        return (q ** (2 * j + 1 + n) * (1 - q ** n) * (q ** (2 * j + 2) - q ** n)
                * (q ** n - D * q ** (j + 1)) * (q ** (j + 1) - D * q ** n)
                / ((q ** (j + 1) + q ** n) ** 2
                   * (q ** (2 * j + 1) - q ** (2 * n)) * (q ** (2 * j + 3) - q ** (2 * n))))
    if n == j or n == j + 1:
        w = (1 - al) if n == j else al
        return (w * (1 - q ** j) * (1 - q ** (j + 1)) * (D - 1) * (1 - q * D)
                / ((1 - q) ** 2 * (1 + q)))
    return (q ** (2 * j + n) * (q ** n - 1) * (q ** (2 * j + 1) - q ** n)
            * (q ** n - D * q ** (j + 1)) * (D * q ** n - q ** j)
            / ((q ** j + q ** n) * (q ** (j + 1) + q ** n)
               * (q ** (2 * j + 1) - q ** (2 * n)) ** 2))


def lattice_points(fam: ParaKrawtchoukFamily) -> tuple:
    """Interleaved exponential bi-lattice: Delta q^s on even indices, q^s on odd."""
    D, q, j = fam.Delta, fam.q, fam.j
    return interleave([D * q ** s for s in range(j + 1)],
                      [q ** s for s in range(fam.N - j)])


def eval_recurrence(tri: TridiagonalSystem, n: int, y):
    """Monic Q_n(y) of the table's family by forward recurrence; n = N+1 gives
    the characteristic polynomial."""
    if not 0 <= n <= tri.family.N + 1:
        raise ValueError("recurrence evaluation requires 0 <= n <= N+1")
    return tri.values(y, n)[-1]


def _k_norm(fam: ParaKrawtchoukFamily):
    D, q, j = fam.Delta, fam.q, fam.j
    qp = qpochhammer
    q2 = q * q
    if fam.odd:
        return ((-1) ** j * q ** (j * (j - 1)) * (1 - q ** (2 * j + 1))
                / ((1 - q) * qp(-q, q, j) * qp(q ** (-2 * j - 1), q2, j)))
    return ((-1) ** j * q ** (3 * j * (j - 1) // 2) * (q ** j + 1) * (1 - q ** (j + 1))
            * (1 - q ** (2 * j + 1)) * qp(q ** (-2 * j - 1), q, j) * (1 - D * q)
            * qp(q ** (-j - 1) / D, q, j) * qp(D * q ** -j, q, j)
            / ((1 - D * q ** (j + 1)) * (1 - q) ** 2
               * qp(q ** (-2 * j - 1), q2, j) ** 2 * qp(-q, q, j) ** 2))


def _weight_at(fam: ParaKrawtchoukFamily, s: int, on_unit_strand: bool, k_norm):
    """The closed-form weight at point s of the Delta-strand or the unit strand."""
    D, al, q, j = fam.Delta, fam.alpha, fam.q, fam.j
    qp = qpochhammer
    if fam.odd:
        if not on_unit_strand:
            num = (k_norm * (1 - al) * (1 - 1 / D) * q ** s
                   * qp(D * q ** -j, q, j) * qp(q ** -j / D, q, j)
                   * qp(q ** -j, q, s) * qp(D * q ** -j, q, s))
            den = qp(q, q, s) * qp(1 / D, q, j + 1) * D ** j * qp(D * q, q, s)
            return num / den
        num = (k_norm * al * (1 - D) * D ** j * q ** s
               * qp(q ** -j / D, q, j) * qp(D * q ** -j, q, j)
               * qp(q ** -j, q, s) * qp(q ** -j / D, q, s))
        den = qp(q, q, s) * qp(D, q, j + 1) * qp(q / D, q, s)
        return num / den
    if not on_unit_strand:
        num = k_norm * (1 - al) * q ** s * qp(q ** -j, q, s) * qp(D * q ** (1 - j), q, s)
        den = D ** j * qp(q, q, s) * qp(q / D, q, j) * qp(D * q, q, s)
        return num / den
    num = (k_norm * al * D ** (j - 1) * (1 - q ** j) * q ** s
           * qp(q ** (1 - j), q, s) * qp(q ** -j / D, q, s))
    den = (1 - q ** j / D) * qp(q, q, s) * qp(D * q, q, j) * qp(q / D, q, s)
    return num / den


def weights(tri: TridiagonalSystem) -> LatticeWeights:
    """Closed-form weights of the table's family on the exponential bi-lattice.

    Satisfy sum_s w_s Q_n(y_s) Q_m(y_s) = delta_{nm} u_1...u_n, with the
    products read from the table, together with the strand sums 1 - alpha
    (even indices) and alpha (odd indices).
    """
    fam = tri.family
    if fam.degenerate:
        raise DegenerateFamilyError(
            "Delta = 1 collapses the two strands; weights are undefined"
        )
    lw = LatticeWeights(points=lattice_points(fam), z_points=None)
    k_norm = _k_norm(fam)
    w = interleave([_weight_at(fam, s, False, k_norm) for s in range(fam.j + 1)],
                   [_weight_at(fam, s, True, k_norm) for s in range(fam.N - fam.j)])
    return lw.weighted(w, tri.h, k_norm=k_norm)
