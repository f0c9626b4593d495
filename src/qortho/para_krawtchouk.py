"""q-para-Krawtchouk polynomials: the exponential bi-lattice specialization.

Obtained from the biexponential family by sending the product a*c to
infinity with the ratio Delta = a/c held fixed, after rescaling the variable
by theta/(2a).  The polynomials are defined here by their own closed-form
recurrence coefficients; the limit itself is only checked (``qpk-limit``).
The interface is q-para-Racah's: ``lattice`` and ``weights`` (through
:func:`~qortho.recurrence.weight_table`) return a ``LatticeWeights``.
"""

from __future__ import annotations

from .qseries import qpochhammer
from .recurrence import (_DEGENERATE_TOL, BiLatticeFamily, LatticeWeights,
                         TridiagonalSystem, interleave, weight_table)
from .scalars import is_finite

__all__ = [
    "ParaKrawtchoukFamily",
    "b_coefficient",
    "u_coefficient",
    "lattice",
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
    _coincident_strands = "Delta = 1 collapses the two strands"

    def __init__(self, Delta, alpha, q, N: int):
        self._check_shared(alpha, q, N)
        if not Delta > 0:
            raise ValueError("Delta must be a positive real")
        if not is_finite(Delta):
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


def lattice(fam: ParaKrawtchoukFamily) -> LatticeWeights:
    """The interleaved exponential bi-lattice (points only): Delta q^s on even
    indices, q^s on odd."""
    D, j = fam.Delta, fam.j
    pw = fam.powers()
    points = interleave([D * pw[s] for s in range(j + 1)], [pw[s] for s in range(fam.N - j)])
    return LatticeWeights(points=points, z_points=None)


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


def _weight_strands(fam: ParaKrawtchoukFamily, k_norm):
    """The alpha-free parts of the closed-form weights, Delta-strand first, in
    the (head, rows) form of :func:`~qortho.recurrence.weight_table`."""
    D, q, j = fam.Delta, fam.q, fam.j
    pw = fam.powers()
    qp = pw.pochhammer
    Dj = D ** j
    if fam.odd:
        dq_j, q_dj = qp(D * pw[-j], j), qp(pw[-j] / D, j)
        return (((k_norm, 1 - 1 / D),
                 [((pw[s], dq_j, q_dj, qp(pw[-j], s), qp(D * pw[-j], s)),
                   qp(q, s) * qp(1 / D, j + 1) * Dj * qp(D * q, s)) for s in range(j + 1)]),
                ((k_norm, 1 - D, Dj),
                 [((pw[s], q_dj, dq_j, qp(pw[-j], s), qp(pw[-j] / D, s)),
                   qp(q, s) * qp(D, j + 1) * qp(q / D, s)) for s in range(j + 1)]))
    qd_j, dq_j, unit_den0 = qp(q / D, j), qp(D * q, j), 1 - pw[j] / D
    return (((k_norm,),
             [((pw[s], qp(pw[-j], s), qp(D * pw[1 - j], s)),
               Dj * qp(q, s) * qd_j * qp(D * q, s)) for s in range(j + 1)]),
            ((k_norm, D ** (j - 1), 1 - pw[j]),
             [((pw[s], qp(pw[1 - j], s), qp(pw[-j] / D, s)),
               unit_den0 * qp(q, s) * dq_j * qp(q / D, s)) for s in range(j)]))


def weights(tri: TridiagonalSystem) -> LatticeWeights:
    """Closed-form weights of the table's family on the exponential bi-lattice.

    Satisfy sum_s w_s Q_n(y_s) Q_m(y_s) = delta_{nm} u_1...u_n, with the
    products read from the table, together with the strand sums 1 - alpha
    (even indices) and alpha (odd indices).
    """
    fam = tri.family
    fam.require_distinct_strands()
    lw = lattice(fam)
    k_norm = _k_norm(fam)
    w = weight_table(_weight_strands(fam, k_norm), (1 - fam.alpha, fam.alpha))
    return lw.weighted(w, tri.h, k_norm=k_norm)
