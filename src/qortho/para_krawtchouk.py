"""q-para-Krawtchouk polynomials: the exponential bi-lattice specialization.

Obtained from the biexponential family by sending the product a*c to
infinity with the ratio Delta = a/c held fixed, after rescaling the variable
by theta/(2a).  The polynomials are defined here by their own closed-form
recurrence coefficients; the limit itself is only checked (``qpk-limit``).
The interface is q-para-Racah's: ``lattice`` gives the points, ``weights``
(through :func:`~qortho.recurrence.weight_table`) a ``LatticeWeights``.
"""

from __future__ import annotations

from .qseries import qpochhammer
from .recurrence import (_DEGENERATE_TOL, BiLatticeFamily, LatticeWeights,
                         TridiagonalSystem, interleave, weight_table)
from .scalars import is_finite, typed_float

__all__ = [
    "ParaKrawtchoukFamily",
    "coefficient_rows",
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
    _strand_heads = ("Delta", "")

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
        return abs(self.Delta - 1) <= typed_float(_DEGENERATE_TOL, self.q)


def coefficient_rows(fam: ParaKrawtchoukFamily, b_degrees, u_degrees) -> tuple:
    """([b_n for n in b_degrees], [u_n for n in u_degrees]) in one pass, as
    :func:`qortho.para_racah.coefficient_rows`: the family's constants are
    formed once per pass, each by the operations, in the order, its formula
    writes, and the b row is filled first.  b_n, 0 <= n <= N, and u_n,
    1 <= n <= N+1; u_{N+1} vanishes identically.
    """
    D, al, q, j = fam.Delta, fam.alpha, fam.q, fam.j
    pw = fam.powers()
    qj, qj1 = pw[j], pw[j + 1]
    D_1, omq = D - 1, 1 - q
    # Off the middle, each difference of powers in u_n is divided by its
    # larger term, so no product leaves the range of the result (the paper's
    # reach q^(4N)); k is the distance from the middle, one form for both
    # sides.
    b, u = [], []
    if fam.odd:
        qj1p, Dp = 1 + qj1, 1 + D
        tail = None  # the alpha-free term of b_j and b_{j+1}
        for n in b_degrees:
            if n == j or n == j + 1:
                w = al if n == j else 1 - al
                head = D - w * (1 - qj1) * D_1 / omq
                if tail is None:
                    tail = q * (1 - qj) * (D * q - 1) / (1 - q * q)
                b.append(head + tail)
                continue
            Q = pw[n]
            b.append(pw[n + j] * qj1p * Dp / ((qj + Q) * (qj1 + Q)))
        for n in u_degrees:
            if n == j + 1:
                u.append(al * (1 - al) * D_1 ** 2 * (1 - qj1) ** 2 / omq ** 2)
                continue
            k = abs(n - j - 1)
            u.append(pw[2 * k - 1] * (1 - pw[n]) * (pw[2 * j + 2 - n] - 1) * (pw[k] - D)
                     * (1 - D * pw[k]) / ((1 + pw[k]) ** 2 * (1 - pw[2 * k - 1])
                                          * (1 - pw[2 * k + 1])))
        return b, u
    # The closed form D - t1 + t2 cancels to about q^(j-1) (1 + D q), a loss
    # of j log10(1/q) digits; over one denominator the same rational function
    # reads J Q (A - B) / (...), with A >= 2B for 1 < D < 1/q.
    J, q2j, q2j1, Dq = qj, pw[2 * j], pw[2 * j + 1], D * q
    KA = 1 + qj1 + Dq * (1 + J)
    KB = D_1 + J * (1 - Dq)
    for n in b_degrees:
        Q = pw[n]
        JQ = J * Q
        A = (J - Q) ** 2 * KA
        B = JQ * omq * KB
        b.append(JQ * (A - B) / ((q2j - pw[2 * n + 1]) * (q2j1 - pw[2 * n])))
    splice_den = omq ** 2 * (1 + q)  # the denominator of u_j and u_{j+1}
    for n in u_degrees:
        if n == j or n == j + 1:
            w = (1 - al) if n == j else al
            u.append(w * (1 - qj) * (1 - qj1) * D_1 * (1 - q * D) / splice_den)
            continue
        k = max(j - n, n - j - 1)
        u.append(pw[2 * k] * (pw[n] - 1) * (pw[2 * j + 1 - n] - 1) * (D - pw[k])
                 * (1 - D * pw[k + 1]) / ((1 + pw[k]) * (1 + pw[k + 1]) * (1 - pw[2 * k + 1]) ** 2))
    return b, u


def b_coefficient(fam: ParaKrawtchoukFamily, n: int):
    """b_n, 0 <= n <= N: one entry of :func:`coefficient_rows`."""
    if not 0 <= n <= fam.N:
        raise ValueError("b_n requires 0 <= n <= N")
    return coefficient_rows(fam, (n,), ())[0][0]


def u_coefficient(fam: ParaKrawtchoukFamily, n: int):
    """u_n, 1 <= n <= N+1: one entry of :func:`coefficient_rows`."""
    if not 1 <= n <= fam.N + 1:
        raise ValueError("u_n requires 1 <= n <= N+1")
    return coefficient_rows(fam, (), (n,))[1][0]


def lattice(fam: ParaKrawtchoukFamily) -> tuple:
    """The interleaved exponential bi-lattice points: Delta q^s on even
    indices, q^s on odd."""
    D, j = fam.Delta, fam.j
    pw = fam.powers()
    return interleave([D * pw[s] for s in range(j + 1)], [pw[s] for s in range(fam.N - j)])


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


def weights(fam: ParaKrawtchoukFamily) -> LatticeWeights:
    """Closed-form weights of the family on the exponential bi-lattice.

    Satisfy sum_s w_s Q_n(y_s) Q_m(y_s) = delta_{nm} h_n, with h_n the
    family's recurrence table's, together with the strand sums 1 - alpha
    (even indices) and alpha (odd indices).  Returns the :func:`lattice`
    points with these weights.
    """
    fam.require_distinct_strands()
    points = lattice(fam)
    k_norm = _k_norm(fam)
    w = weight_table(_weight_strands(fam, k_norm), (1 - fam.alpha, fam.alpha))
    return LatticeWeights(points, w)
