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
    pw = fam.powers()
    if fam.odd:
        if n == j or n == j + 1:
            w = al if n == j else 1 - al
            return (D - w * (1 - pw[j + 1]) * (D - 1) / (1 - q)
                    + q * (1 - pw[j]) * (D * q - 1) / (1 - q * q))
        return (pw[n + j] * (1 + pw[j + 1]) * (1 + D)
                / ((pw[j] + pw[n]) * (pw[j + 1] + pw[n])))
    t1 = (pw[2 * j] * (pw[n] - 1) * (pw[n] - D * pw[j + 1])
          / ((pw[j] + pw[n]) * (pw[2 * j + 1] - pw[2 * n])))
    t2 = (pw[n] * (pw[2 * j] - pw[n]) * (pw[j] - D * pw[n + 1])
          / ((pw[j] + pw[n]) * (pw[2 * j] - pw[2 * n + 1])))
    return D - t1 + t2


def u_coefficient(fam: ParaKrawtchoukFamily, n: int):
    if not 1 <= n <= fam.N + 1:
        raise ValueError("u_n requires 1 <= n <= N+1")
    D, al, q, j = fam.Delta, fam.alpha, fam.q, fam.j
    pw = fam.powers()
    if fam.odd:
        if n == j + 1:
            return al * (1 - al) * (D - 1) ** 2 * (1 - pw[j + 1]) ** 2 / (1 - q) ** 2
        return (pw[2 * j + 1 + n] * (1 - pw[n]) * (pw[2 * j + 2] - pw[n])
                * (pw[n] - D * pw[j + 1]) * (pw[j + 1] - D * pw[n])
                / ((pw[j + 1] + pw[n]) ** 2
                   * (pw[2 * j + 1] - pw[2 * n]) * (pw[2 * j + 3] - pw[2 * n])))
    if n == j or n == j + 1:
        w = (1 - al) if n == j else al
        return (w * (1 - pw[j]) * (1 - pw[j + 1]) * (D - 1) * (1 - q * D)
                / ((1 - q) ** 2 * (1 + q)))
    return (pw[2 * j + n] * (pw[n] - 1) * (pw[2 * j + 1] - pw[n])
            * (pw[n] - D * pw[j + 1]) * (D * pw[n] - pw[j])
            / ((pw[j] + pw[n]) * (pw[j + 1] + pw[n])
               * (pw[2 * j + 1] - pw[2 * n]) ** 2))


def lattice_points(fam: ParaKrawtchoukFamily) -> tuple:
    """Interleaved exponential bi-lattice: Delta q^s on even indices, q^s on odd."""
    D, j = fam.Delta, fam.j
    pw = fam.powers()
    return interleave([D * pw[s] for s in range(j + 1)],
                      [pw[s] for s in range(fam.N - j)])


def eval_recurrence(tri: TridiagonalSystem, n: int, y):
    """Monic Q_n(y) of the table's family by forward recurrence; n = N+1 gives
    the characteristic polynomial."""
    if not 0 <= n <= tri.family.N + 1:
        raise ValueError("recurrence evaluation requires 0 <= n <= N+1")
    return tri.values(y, n)[-1]


def _k_norm(fam: ParaKrawtchoukFamily):
    D, q, j = fam.Delta, fam.q, fam.j
    pw = fam.powers()
    qp = pw.pochhammer
    q2 = q * q
    if fam.odd:
        return ((-1) ** j * pw[j * (j - 1)] * (1 - pw[2 * j + 1])
                / ((1 - q) * qp(-q, j) * qpochhammer(pw[-2 * j - 1], q2, j)))
    return ((-1) ** j * pw[3 * j * (j - 1) // 2] * (pw[j] + 1) * (1 - pw[j + 1])
            * (1 - pw[2 * j + 1]) * qp(pw[-2 * j - 1], j) * (1 - D * q)
            * qp(pw[-j - 1] / D, j) * qp(D * pw[-j], j)
            / ((1 - D * pw[j + 1]) * (1 - q) ** 2
               * qpochhammer(pw[-2 * j - 1], q2, j) ** 2 * qp(-q, j) ** 2))


def _weight_at(fam: ParaKrawtchoukFamily, s: int, on_unit_strand: bool, k_norm):
    """The closed-form weight at point s of the Delta-strand or the unit strand."""
    D, al, q, j = fam.Delta, fam.alpha, fam.q, fam.j
    pw = fam.powers()
    qp = pw.pochhammer
    if fam.odd:
        if not on_unit_strand:
            num = (k_norm * (1 - al) * (1 - 1 / D) * pw[s]
                   * qp(D * pw[-j], j) * qp(pw[-j] / D, j)
                   * qp(pw[-j], s) * qp(D * pw[-j], s))
            den = qp(q, s) * qp(1 / D, j + 1) * D ** j * qp(D * q, s)
            return num / den
        num = (k_norm * al * (1 - D) * D ** j * pw[s]
               * qp(pw[-j] / D, j) * qp(D * pw[-j], j)
               * qp(pw[-j], s) * qp(pw[-j] / D, s))
        den = qp(q, s) * qp(D, j + 1) * qp(q / D, s)
        return num / den
    if not on_unit_strand:
        num = k_norm * (1 - al) * pw[s] * qp(pw[-j], s) * qp(D * pw[1 - j], s)
        den = D ** j * qp(q, s) * qp(q / D, j) * qp(D * q, s)
        return num / den
    num = (k_norm * al * D ** (j - 1) * (1 - pw[j]) * pw[s]
           * qp(pw[1 - j], s) * qp(pw[-j] / D, s))
    den = (1 - pw[j] / D) * qp(q, s) * qp(D * q, j) * qp(q / D, s)
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
