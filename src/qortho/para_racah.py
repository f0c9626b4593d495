"""The q-para-Racah family: N+1 monic orthogonal polynomials on a
biexponential bi-lattice, obtained from the Askey-Wilson family through the
singular truncation abcd = q^(1-N).

All truncation limits are encoded as closed-form case tables; no limits are
taken at runtime.  The deformation parameter alpha in (0, 1) moves a handful
of recurrence coefficients around the middle of the band without moving the
spectrum; alpha = 1/2 is the persymmetric point.

Polynomials are evaluated in the exponential variable z with
x = (z + 1/z)/2.  Lattice points carry their own z representatives
(a q^s and c q^s), so no x -> z inversion is ever needed on the grid.
"""

from __future__ import annotations

from .qseries import SeriesPlan, qpochhammer
# weights_from_christoffel (both kinds' route) is bound for verify's calls.
from .recurrence import (_DEGENERATE_TOL, BiLatticeFamily, DegenerateFamilyError,
                         LatticeWeights, TridiagonalSystem, interleave,
                         qdifference_residual, weight_table, weights_from_christoffel)
from .scalars import is_finite, is_mp

__all__ = [
    "ParaRacahFamily",
    "DegenerateFamilyError",
    "b_coefficient",
    "u_coefficient",
    "eval_recurrence",
    "eval_explicit",
    "limit_recurrence_ac",
    "lattice",
    "weights",
    "weights_from_christoffel",
    "qdiff_eigenvalue",
    "qdiff_residual",
]

class ParaRacahFamily(BiLatticeFamily):
    """Parameter set {a, c, alpha, q, N} with derived parity and j.

    Construction enforces only the structural constraints (finite positive
    a, c, nome and deformation in (0,1), integer N >= 1).  Whether the
    family has an orthogonality measure is read from its recurrence table
    (``TridiagonalSystem.positive``: every u_n > 0), and c = a is rejected
    only where it matters (weights).
    """

    _fields = ("a", "c", "alpha", "q", "N")
    _coincident_strands = "c = a makes the spectrum doubly degenerate"

    def __init__(self, a, c, alpha, q, N: int):
        self._check_shared(alpha, q, N)
        if not a > 0 or not c > 0:
            raise ValueError("parameters a and c must be positive reals")
        if not is_finite(a) or not is_finite(c):
            raise ValueError("parameters a and c must be finite")
        fields = self.__dict__
        fields["a"] = a
        fields["c"] = c
        fields["alpha"] = alpha
        fields["q"] = q
        fields["N"] = N

    @property
    def degenerate(self) -> bool:
        return abs(self.a - self.c) <= _DEGENERATE_TOL * max(self.a, self.c)


def _unpack(fam):
    return fam.a, fam.c, fam.alpha, fam.q, fam.j


def b_coefficient(fam: ParaRacahFamily, n: int):
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


def u_coefficient(fam: ParaRacahFamily, n: int):
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
    these, and the dual-Hahn limit consumes them directly.
    """
    if not 0 <= n <= fam.N + 1:
        raise ValueError("limit coefficients require 0 <= n <= N+1")
    a, c, al, q, j = _unpack(fam)
    pw = fam.powers()
    if fam.odd:
        if n == j:
            A = (al * (1 - a * c * pw[j]) * (c - a) * (1 - pw[-j - 1])
                 / (a * c * (1 - 1 / q)))
        else:
            A = ((1 - a * c * pw[n]) * (c - a * pw[n - j]) * (1 - pw[n - 2 * j - 1])
                 / (a * c * (1 - pw[2 * n - 2 * j - 1]) * (1 + pw[n - j])))
        if n == j + 1:
            C = ((1 - al) * (1 - pw[j + 1]) * (a - c) * (a * c - pw[-j])
                 / (a * c * (1 - q)))
        else:
            C = ((1 - pw[n]) * (a - c * pw[n - j - 1]) * (a * c - pw[n - 2 * j - 1])
                 / (a * c * (1 + pw[n - j - 1]) * (1 - pw[2 * n - 2 * j - 1])))
        return A, C
    if n == j:
        A = al * (1 - a * c * pw[j]) * (1 - (a / c) * q) * (1 - pw[-j]) / (a * (1 - q))
        C = ((1 - al) * a * (1 - pw[j]) * (1 - (c / a) / q) * (1 - pw[-j] / (a * c))
             / (1 - 1 / q))
        return A, C
    A = ((1 - pw[n - j]) * (1 - a * c * pw[n]) * (1 - (a / c) * pw[n - j + 1])
         * (1 - pw[n - 2 * j])
         / (a * (1 - pw[2 * n - 2 * j]) * (1 - pw[2 * n - 2 * j + 1])))
    C = (a * (1 - pw[n]) * (1 - (c / a) * pw[n - j - 1]) * (1 - pw[n - 2 * j] / (a * c))
         * (1 - pw[n - j])
         / ((1 - pw[2 * n - 2 * j - 1]) * (1 - pw[2 * n - 2 * j])))
    return A, C


def eval_recurrence(tri: TridiagonalSystem, n: int, z):
    """Monic R_n of the table's family at x = (z + 1/z)/2 by forward recurrence.

    n = N+1 is allowed and produces the characteristic polynomial of the
    Jacobi matrix, whose zeros are the orthogonality lattice.
    """
    if not 0 <= n <= tri.family.N + 1:
        raise ValueError("recurrence evaluation requires 0 <= n <= N+1")
    if z == 0:
        raise ValueError("z must be nonzero")
    return tri.values((z + 1 / z) / 2, n)[-1]


# ---------------------------------------------------------------------------
# Explicit hypergeometric expressions
# ---------------------------------------------------------------------------
#
# With j = floor(N/2), degree n <= j is a single terminating series and
# degree n > j a head series truncated at N-n plus a tail truncated at
# n-j-1; the parameters q^(n-N) and (a/c) q^(j+1-N) serve both parities of
# N.  For odd N the degrees n = j and n = j+1, where a head parameter
# cancels against the denominator, are summed with that pair removed, as a
# middle sum plus, for n = j+1, the alpha-weighted tail term.  Every series
# below is summed with an explicit truncation degree: relying on
# floating-point zeros of (q^-m; q)_k would be fragile.


def _eta(fam: ParaRacahFamily, n: int):
    """Monic normalization of the explicit expansion."""
    a, c, al, q, j = _unpack(fam)
    N = fam.N
    pw = fam.powers()
    qp = pw.pochhammer
    r = (a / c) * pw[j + 1 - N]
    sign_pow = (-2 * a) ** n * pw[n * (n + 1) // 2]
    if n <= j:
        num = qp(q, n) * qp(pw[-j], n) * qp(r, n) * qp(a * c, n)
        den = qp(pw[n - N], n) * qp(pw[-n], n) * sign_pow
        return num / den
    num = (al * qp(pw[-j], j) * qp(q, n - j - 1)
           * qp(r, n) * qp(a * c, n) * qp(q, n))
    den = (qp(pw[n - N], N - n) * qp(q, 2 * n - N - 1)
           * qp(pw[-n], n) * sign_pow)
    return num / den


def _explicit_plan(fam: ParaRacahFamily, n: int):
    """The branch-appropriate explicit expression of degree n, as a function
    z -> (value, cancellation scale).

    Everything free of z (the normalization :func:`_eta`, the series plans
    and the prefactor products) is computed here, once per degree; the
    returned function multiplies in the z-dependent factors at the places a
    per-point evaluation of the whole expression would, so each value is that
    evaluation's bit for bit.  The scale is |eta| times the sum of absolute
    series terms; roundoff in a binary64 evaluation is a small multiple of
    eps times this scale.
    """
    a, c, al, q, j = _unpack(fam)
    N = fam.N
    pw = fam.powers()
    qp = pw.pochhammer
    eta = _eta(fam, n)
    if fam.odd and n in (j, j + 1):
        # sum_{k<=j} (q^{-j-1}, az, a/z; q)_k q^k / (q, ac, (a/c)q^{-j}; q)_k
        middle = SeriesPlan((pw[-j - 1],), (q, a * c, (a / c) * pw[-j]), q, q, j)
        if n == j:
            def value(z):
                body, mag = middle.sum((a * z, a / z))
                return eta * body, abs(eta) * mag
            return value
        extra_head = qp(pw[-j - 1], j + 1)
        extra_den = (al * qp(q, j + 1) * qp(a * c, j + 1)
                     * qp((a / c) * pw[-j], j + 1))
        qj1 = pw[j + 1]

        def value(z):
            az, a_z = a * z, a / z
            body, mag = middle.sum((az, a_z))
            extra = (extra_head * qpochhammer(az, q, j + 1) * qpochhammer(a_z, q, j + 1)
                     * qj1 / extra_den)
            return eta * (body + extra), abs(eta) * (mag + abs(extra))
        return value
    r = (a / c) * pw[j + 1 - N]
    head_num = (pw[-n], pw[n - N])
    head_den = (pw[-j], a * c, r, q)
    if n <= j:
        head = SeriesPlan(head_num, head_den, q, q, n)

        def value(z):
            body, mag = head.sum((a * z, a / z))
            return eta * body, abs(eta) * mag
        return value
    head = SeriesPlan(head_num, head_den, q, q, N - n)
    pref_head = qp(pw[n - N], N - n) * qp(pw[-n], j + 1)
    pref_tail = qp(q, n + j - N)
    qj1 = pw[j + 1]
    pref_den = (al * qp(pw[-j], j) * qp(q, j + 1)
                * qp(a * c, j + 1) * qp(r, j + 1))
    aq = a * qj1
    # (a/c) q^(2j+2-N), multiplied left to right: (a/c) q q for even N.
    tail = SeriesPlan((pw[j + 1 - n], pw[n + j + 1 - N]),
                      (pw[j + 2], a * c * qj1, (a / c) * q * pw[2 * j + 1 - N], q),
                      q, q, n - j - 1)

    def value(z):
        az, a_z = a * z, a / z
        body, body_mag = head.sum((az, a_z))
        pref_num = (pref_head * qpochhammer(az, q, j + 1) * qpochhammer(a_z, q, j + 1)
                    * pref_tail * qj1)
        tail_sum, tail_mag = tail.sum((aq * z, aq / z))
        pref = pref_num / pref_den
        return (eta * (body + pref * tail_sum),
                abs(eta) * (body_mag + abs(pref) * tail_mag))
    return value


# Promote a binary64 explicit evaluation once its cancellation scale says the
# result cannot be certified to ~1e-9 relative accuracy.
_PROMOTION_RATIO = 1e6
_PROMOTION_DPS = 40


def eval_explicit(fam: ParaRacahFamily, n: int, zs) -> list:
    """[R_n(x(z)) for z in zs], x = (z + 1/z)/2, from the branch-appropriate
    explicit expression; its z-free factors are computed once for the degree
    (:func:`_explicit_plan`).

    Agrees with :func:`eval_recurrence`; the two routes together cross-check
    the coefficient tables and the series normalizations.  The terminating
    sums cancel badly for small q and large N (term scale grows like
    q**(-j^2)); when the tracked term magnitude shows binary64 cannot hold
    ~1e-9 relative accuracy at a point, that point transparently reruns at
    extended precision and is rounded back.  A degenerate family (c = a)
    raises :class:`DegenerateFamilyError`.
    """
    if not 0 <= n <= fam.N:
        raise ValueError("explicit evaluation requires 0 <= n <= N")
    if any(z == 0 for z in zs):
        raise ValueError("z must be nonzero")
    # c = a puts an exact zero in a denominator of the expansion.
    fam.require_distinct_strands("the explicit expansion is undefined")
    route = _explicit_plan(fam, n)
    hi_route = None
    out = []
    for z in zs:
        value, magnitude = route(z)
        if is_mp(value) or magnitude <= _PROMOTION_RATIO * abs(value):
            out.append(value)
            continue
        import mpmath
        with mpmath.workdps(_PROMOTION_DPS):
            if hi_route is None:
                hi_route = _explicit_plan(fam.replace(
                    a=mpmath.mpf(fam.a), c=mpmath.mpf(fam.c),
                    alpha=mpmath.mpf(fam.alpha), q=mpmath.mpf(fam.q)), n)
            hi = hi_route(mpmath.mpmathify(z))[0]
            if isinstance(z, complex):
                out.append(complex(hi))
            else:
                out.append(float(hi.real if hasattr(hi, "real") else hi))
    return out


# ---------------------------------------------------------------------------
# Lattice and weights
# ---------------------------------------------------------------------------


def lattice(fam: ParaRacahFamily) -> LatticeWeights:
    """The interleaved bi-lattice (points and z representatives only).

    The a-strand z = a q^s (j+1 points) and the c-strand z = c q^s (N-j
    points, one fewer when N is even) in :func:`~qortho.recurrence.interleave`
    order.  Points are kept in this index order (not sorted) because the
    weight tables are index-keyed.
    """
    a, c, _, q, j = _unpack(fam)
    pw = fam.powers()
    zs = interleave([a * pw[s] for s in range(j + 1)],
                    [c * pw[s] for s in range(fam.N - j)])
    return LatticeWeights(points=tuple((1 / z + z) / 2 for z in zs), z_points=zs)


def _k_norm(fam: ParaRacahFamily):
    """Closed-form normalization constant of the weight tables.

    Equals +/- sqrt(u_1...u_N) evaluated at alpha = 1/2; the sign is the one
    that makes the printed weight tables positive.
    """
    a, c, _, q, j = _unpack(fam)
    pw = fam.powers()
    qp = pw.pochhammer
    q2 = q * q
    if fam.odd:
        num = ((a - c) * pw[-j] * (pw[j + 1] - 1) * (a * c * pw[j] - 1)
               * qp(pw[-j], j) ** 2 * qp(pw[-2 * j - 1], j)
               * qp(q, j) * qp(a * c, j)
               * qp((a / c) * pw[-j], j) * qp((c / a) * pw[-j], j)
               * qp(pw[-2 * j] / (a * c), j))
        den = (a * c * (q - 1) * 2 ** (2 * j + 2)
               * qpochhammer(pw[-2 * j - 1], q2, j) * qpochhammer(pw[-2 * j], q2, j) ** 2
               * qpochhammer(pw[1 - 2 * j], q2, j))
        return num / den
    # The printed even-case constant carries (ac/q; q)_{j+2} over (ac - q);
    # the shared root at ac = q is cancelled analytically here, leaving
    # -(ac; q)_{j+1}/q folded into the prefactor.
    num = (pw[2 * j * j] * (c - a) * (1 + pw[j]) * (1 - pw[j + 1])
           * (1 - pw[2 * j + 1]) * (c - a * q)
           * qp(q, j) * qp(pw[-2 * j - 1], j) * qp(a * c, j + 1)
           * qp((c / a) * pw[-j - 1], j)
           * qp(pw[-2 * j] / (a * c), j) * qp((a / c) * pw[-j], j))
    den = ((1 - q) ** 2 * qpochhammer(pw[-2 * j - 1], q2, j) ** 2 * qp(-q, j) ** 2
           * (a - c * pw[j]) * (1 - a * c * pw[2 * j]) * (c - a * pw[j + 1]))
    return -num / den


def _weight_strands(fam: ParaRacahFamily, k_norm):
    """The alpha-free parts of the closed-form weights, a-strand first, in
    the (head, rows) form of :func:`~qortho.recurrence.weight_table`."""
    a, c, _, q, j = _unpack(fam)
    pw = fam.powers()
    qp = pw.pochhammer
    # q^(2s) is read as pw[s + s]: the product form, 2 times s in brackets, is
    # how an index into a strand is written, and only recurrence writes one.
    if fam.odd:
        def strand(x, y):
            den0 = (qp(q, j) * qp(x * x * q, j)
                    * qp(y / x, j + 1) * qp(a * c, j + 1) * (1 - x * x))
            return ((k_norm, 2 ** (2 * j + 1), x ** j, y ** (j + 1)),
                    [((pw[(2 * j + 1) * s + (j + 1) * j], 1 - x * x * pw[s + s],
                       qp(x * x, s), qp(pw[-j], s),
                       qp(a * c, s), qp((x / y) * pw[-j], s)),
                      den0 * qp(q, s) * qp((x / y) * q, s)
                      * qp(x * x * pw[j + 1], s) * qp(a * c * pw[j + 1], s))
                     for s in range(j + 1)])
        return strand(a, c), strand(c, a)
    # (c/a; q)_j on the a-strand, one factor shorter than on the c-strand: the
    # length is fixed by the Christoffel route and the strand-sum 1-alpha.
    a_den0 = (qp(q, j) * qp(a * a * q, j)
              * qp(c / a, j) * qp(a * c, j) * (1 - a * a))
    c_den0 = (qp(q, j - 1) * qp(c * c * q, j - 1)
              * qp(a / c, j + 1) * qp(a * c, j + 1) * (1 - c * c))
    return (((k_norm, a ** j, c ** j),
             [((pw[2 * j * s], 1 - a * a * pw[s + s],
                qp(a * a, s), qp(pw[-j], s),
                qp(a * c, s), qp((a / c) * pw[-j + 1], s)),
               a_den0 * qp(q, s) * qp((a / c) * q, s)
               * qp(a * a * pw[j + 1], s) * qp(a * c * pw[j], s))
              for s in range(j + 1)]),
            ((k_norm, a ** (j + 1), c ** (j - 1)),
             [((pw[2 * j * s], 1 - c * c * pw[s + s],
                qp(c * c, s), qp(pw[-j + 1], s),
                qp(a * c, s), qp((c / a) * pw[-j], s)),
               c_den0 * qp(q, s) * qp((c / a) * q, s)
               * qp(c * c * pw[j], s) * qp(a * c * pw[j + 1], s))
              for s in range(j)]))


def _weight_leads(fam: ParaRacahFamily, al):
    """Each strand's factor of the deformation alpha = al in its weights."""
    return (-2 * (1 - al), 2 * al) if fam.odd else (1 - al, -al)


def weights(tri: TridiagonalSystem) -> LatticeWeights:
    """Orthogonality weights of the table's family from the closed-form tables.

    The weights satisfy sum_s w_s R_n(x_s) R_m(x_s) = delta_{nm} h_n, with
    h_n read from the table, and the strand sums are 1 - alpha (even
    indices) and alpha (odd indices).  A family outside the positivity
    region still gets weights, flagged as a signed measure.
    """
    fam = tri.family
    fam.require_distinct_strands()
    lw = lattice(fam)
    k_norm = _k_norm(fam)
    strands = _weight_strands(fam, k_norm)
    w = weight_table(strands, _weight_leads(fam, fam.alpha))
    w_half = weight_table(strands, _weight_leads(fam, 0.5))
    return lw.weighted(w, tri.h, w_half, k_norm)


# ---------------------------------------------------------------------------
# q-difference operator
# ---------------------------------------------------------------------------


def qdiff_eigenvalue(fam: ParaRacahFamily, n: int):
    """lambda_n = q^-n (1 - q^n)(1 - q^{n-N}); degenerate under n -> N-n."""
    pw = fam.powers()
    return pw[-n] * (1 - pw[n]) * (1 - pw[n - fam.N])


def qdiff_residual(tri: TridiagonalSystem, n: int, zs) -> list:
    """[(LHS - RHS, operator scale) for z in zs] of the q-difference
    equation of the table's family at degree n.

    The shift coefficient's numerator is the Askey-Wilson one at the
    truncation b = q^-j / a, d = q^(j+1-N) / c; its z-free powers of q and
    lambda_n are computed once for the degree.
    """
    fam = tri.family
    if not 0 <= n <= fam.N:
        raise ValueError("q-difference residual requires 0 <= n <= N")
    a, c, _, q, j = _unpack(fam)
    pw = fam.powers()
    q_j, q_jN = pw[-j], pw[j + 1 - fam.N]
    lam = qdiff_eigenvalue(fam, n)

    def numerator(z):
        return (1 - a * z) * (1 - q_j * z / a) * (1 - c * z) * (1 - q_jN * z / c)

    def value(z):
        return eval_recurrence(tri, n, z)
    return qdifference_residual(numerator, value, lam, q, zs)
