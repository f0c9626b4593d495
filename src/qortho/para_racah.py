"""The q-para-Racah family: N+1 monic orthogonal polynomials on a
biexponential bi-lattice, obtained from the Askey-Wilson family through the
singular truncation abcd = q^(1-N).

All truncation limits are encoded as closed-form case tables, the recurrence
as (A_n, C_n) only (:func:`limit_rows`); no limits are taken at runtime.
The deformation parameter alpha in (0, 1) moves a handful of recurrence
coefficients around the middle of the band without moving the
spectrum; alpha = 1/2 is the persymmetric point.

Polynomials are evaluated in the exponential variable z with
x = (z + 1/z)/2.  Each lattice point is computed from its z (a q^s or
c q^s) in one expression, so no x -> z inversion is ever needed on the grid.

The explicit expansion cancels like q^(-j^2); ``eval_explicit`` reads the
digits each value loses off the recurrence and reruns the values that lose
too many, by one rule for binary64 and Decimal runs alike.
"""

from __future__ import annotations

import math

from .qseries import PowerTable, qpochhammer, series_terms
# weights_from_christoffel (both kinds' route, in recurrence) is bound here only
# for the benchmark tracer's para_racah.christoffel layer.
from .recurrence import (_DEGENERATE_TOL, BiLatticeFamily, DegenerateFamilyError,
                         LatticeWeights, TridiagonalSystem, interleave, monic_coefficients,
                         qdifference_residual, weight_table, weights_from_christoffel)
from .scalars import (extended_precision, is_extended, is_finite, to_extended, typed_float,
                      working_precision)

__all__ = [
    "ParaRacahFamily",
    "DegenerateFamilyError",
    "coefficient_rows",
    "limit_rows",
    "b_coefficient",
    "u_coefficient",
    "eval_recurrence",
    "eval_explicit",
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
    _strand_heads = ("a", "c")

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
        a, c = self.a, self.c
        return abs(a - c) <= typed_float(_DEGENERATE_TOL, a) * max(a, c)

    def require_distinct_strands(self, undefined="weights are undefined", same_strand=True):
        """Also refuse two strand points z = x q^s and z' = y q^t whose
        product is within :data:`_DEGENERATE_TOL` of 1, since x = (z + 1/z)/2
        maps both to one lattice point: a c q^m = 1 (m < N) and, with
        ``same_strand``, a^2 q^m = 1 (0 < m < 2j) or c^2 q^m = 1
        (0 < m < 2(N - j - 1)), each m tried at its lowest s.  The explicit
        expansion divides by (a c; q)_k but by no factor in a^2 or c^2, so it
        passes ``same_strand=False``."""
        super().require_distinct_strands(undefined)
        heads = {"a": self.a, "c": self.c}
        last = {"a": self.j, "c": self.N - self.j - 1}  # the highest s on each strand
        pw = self.powers()
        tol = typed_float(_DEGENERATE_TOL, self.q)
        for x, y in (("a", "c"), ("a", "a"), ("c", "c"))[:3 if same_strand else 1]:
            twice = x == y
            for m in range(twice, last[x] + last[y] + 1 - twice):
                s = max(0, m - last[y])
                # Point by point: a c or a^2 alone may overflow where the points do not.
                if abs(heads[x] * pw[s] * (heads[y] * pw[m - s]) - 1) <= tol:
                    raise DegenerateFamilyError("%s q^%d %s q^%d = 1 puts one lattice point %s; %s"
                                                % (x, s, y, m - s, "twice on one strand" if twice
                                                   else "on both strands", undefined))


def _unpack(fam):
    return fam.a, fam.c, fam.alpha, fam.q, fam.j


def coefficient_rows(fam: ParaRacahFamily, b_degrees, u_degrees) -> tuple:
    """([b_n for n in b_degrees], [u_n for n in u_degrees]) from one
    :func:`limit_rows` pass.

    b_n, 0 <= n <= N, is the diagonal recurrence coefficient and u_n,
    1 <= n <= N+1, the sub-diagonal one; u_{N+1} vanishes with A_N.  They
    are the Askey-Wilson monic map in X = 2x, b_n = (a + 1/a - A_n - C_n) / 2
    and u_n = A_{n-1} C_n / 4 (:func:`~qortho.recurrence.monic_coefficients`),
    of the limits of the degrees they need, in increasing order: a table
    raises what that pass raises.  Each of ``b_degrees`` and ``u_degrees``
    is a run of consecutive degrees, so the pass covers every degree from
    the lowest needed to the highest, and its list is indexed by degree.
    """
    N = fam.N
    lo = min(b_degrees[0] if b_degrees else N, u_degrees[0] - 1 if u_degrees else N)
    hi = max(b_degrees[-1] if b_degrees else 0, u_degrees[-1] if u_degrees else 0)
    rows = [None] * lo + limit_rows(fam, range(lo, hi + 1))
    return monic_coefficients(rows, b_degrees, u_degrees, fam.a + 1 / fam.a, 2)


def limit_rows(fam: ParaRacahFamily, degrees) -> list:
    """[(A_n, C_n) for n in degrees], 0 <= n <= N+1: the resolved truncation
    limits of the parent coefficients, in one pass.

    These are the closed-form values the Askey-Wilson A_n and C_n approach
    under the truncating parametrization; the special indices around N/2
    carry the deformation alpha.  They are the one copy of the recurrence:
    :func:`coefficient_rows` maps them to b_n and u_n, and the dual-Hahn
    limit consumes them directly.  ac, a/c and c/a are formed once per pass
    and each factor A_n and C_n share (1 - q^(n-j), 1 - q^(2n-2j), ...) once
    per n, by the operations of the per-entry formula, so every value is its
    bit for bit.  A factor 1 - q^k that can meet k = -1 is read from
    ``one_minus``, which gives 1 - q^-1 as (q - 1) / q, formed once per pass:
    its numerator is exact, where 1 - 1/q would carry the rounding of 1/q
    into a difference near 0 for q near 1.  Only a read of a negative power
    of q or a division can raise, so a pass raises what its entries, taken
    in order, raise.
    """
    a, c, al, q, j = _unpack(fam)
    pw = fam.powers()
    ac = a * c
    below = (q - 1) / q

    def one_minus(k):
        return below if k == -1 else 1 - pw[k]
    rows = []
    if fam.odd:
        for n in degrees:
            D = one_minus(2 * n - 2 * j - 1)
            if n == j:
                A = (al * (1 - ac * pw[j]) * (c - a) * one_minus(-j - 1)
                     / (ac * below))
            else:
                A = ((1 - ac * pw[n]) * (c - a * pw[n - j]) * one_minus(n - 2 * j - 1)
                     / (ac * D * (1 + pw[n - j])))
            if n == j + 1:
                C = (1 - al) * (1 - pw[j + 1]) * (a - c) * (ac - pw[-j]) / (ac * (1 - q))
            else:
                C = ((1 - pw[n]) * (a - c * pw[n - j - 1]) * (ac - pw[n - 2 * j - 1])
                     / (ac * (1 + pw[n - j - 1]) * D))
            rows.append((A, C))
        return rows
    a_c, c_a = a / c, c / a
    for n in degrees:
        if n == j:
            rows.append((al * (1 - ac * pw[j]) * (1 - a_c * q) * one_minus(-j)
                         / (a * (1 - q)),
                         (1 - al) * a * (1 - pw[j]) * (1 - c_a / q) * (1 - pw[-j] / ac)
                         / below))
            continue
        E = one_minus(n - j)
        D = 1 - pw[2 * n - 2 * j]
        A = (E * (1 - ac * pw[n]) * (1 - a_c * pw[n - j + 1]) * one_minus(n - 2 * j)
             / (a * D * one_minus(2 * n - 2 * j + 1)))
        C = (a * (1 - pw[n]) * (1 - c_a * pw[n - j - 1]) * (1 - pw[n - 2 * j] / ac) * E
             / ((1 - pw[2 * n - 2 * j - 1]) * D))
        rows.append((A, C))
    return rows


def b_coefficient(fam: ParaRacahFamily, n: int):
    """Diagonal recurrence coefficient b_n, 0 <= n <= N: one entry of
    :func:`coefficient_rows`."""
    if not 0 <= n <= fam.N:
        raise ValueError("b_n requires 0 <= n <= N")
    return coefficient_rows(fam, (n,), ())[0][0]


def u_coefficient(fam: ParaRacahFamily, n: int):
    """Sub-diagonal recurrence coefficient u_n, 1 <= n <= N+1: one entry of
    :func:`coefficient_rows`.

    u_{N+1} vanishes identically; it is exposed only so the truncation can be
    checked directly.
    """
    if not 1 <= n <= fam.N + 1:
        raise ValueError("u_n requires 1 <= n <= N+1")
    return coefficient_rows(fam, (), (n,))[1][0]


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
# below has an explicit truncation degree: relying on floating-point zeros
# of (q^-m; q)_k would be fragile.


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


def _explicit_plan(fam: ParaRacahFamily, n: int) -> list:
    """Degree n's z-free coefficient row [(k, C_(n,k))]: R_n(x) is the sum
    of C_(n,k) (az, a/z; q)_k, the Askey-Wilson basis at the point
    (:func:`_point_factors`).

    C_(n,k) is eta (:func:`_eta`) times the head series' term t_k, for
    k <= min(n, N-n).  The degrees n > j add a second term,
    P (az, a/z; q)_(j+1) times a tail series in (a q^(j+1) z, a q^(j+1)/z),
    and (az; q)_(j+1) (a q^(j+1) z; q)_m = (az; q)_(j+1+m), the same for a/z,
    so its m-th tail term s_m gives C_(n,j+1+m) = (eta P) s_m.  Every series
    reads its rows and guard checks from the family's table, once per family
    and precision for all degrees.
    """
    a, c, al, q, j = _unpack(fam)
    N = fam.N
    pw = fam.powers()
    qp = pw.pochhammer
    qj1 = pw[j + 1]
    eta = _eta(fam, n)
    tail = ()
    if fam.odd and n in (j, j + 1):
        # sum_{k<=j} (q^{-j-1}, az, a/z; q)_k q^k / (q, ac, (a/c)q^{-j}; q)_k
        head = series_terms((pw[-j - 1],), (q, a * c, (a / c) * pw[-j]), pw, q, j)
        if n == j + 1:
            # The alpha-weighted term (az, a/z; q)_(j+1) P: one tail term.
            pref = qp(pw[-j - 1], j + 1) * qj1 / (
                al * qp(q, j + 1) * qp(a * c, j + 1) * qp((a / c) * pw[-j], j + 1))
            tail = [pw[0]]
    else:
        r = (a / c) * pw[j + 1 - N]
        head = series_terms((pw[-n], pw[n - N]), (pw[-j], a * c, r, q), pw, q, min(n, N - n))
        if n > j:
            pref = (qp(pw[n - N], N - n) * qp(pw[-n], j + 1) * qp(q, n + j - N) * qj1
                    / (al * qp(pw[-j], j) * qp(q, j + 1) * qp(a * c, j + 1) * qp(r, j + 1)))
            # (a/c) q^(2j+2-N), multiplied left to right: (a/c) q q for even N.
            tail = series_terms((pw[j + 1 - n], pw[n + j + 1 - N]),
                                (pw[j + 2], a * c * qj1, (a / c) * q * pw[2 * j + 1 - N], q),
                                pw, q, n - j - 1)
    row = [(k, eta * t) for k, t in enumerate(head)]
    if tail:
        scale = eta * pref
        row += [(j + 1 + m, scale * s) for m, s in enumerate(tail)]
    return row


def _point_factors(fam: ParaRacahFamily, z) -> list:
    """One point's basis row, read by every degree: phi_k = (az, a/z; q)_k
    for k = 0..N, each phi_(k+1) = phi_k (1 - az q^k) (1 - (a/z) q^k).  The
    factors come from a :class:`~qortho.qseries.PowerTable` of the point's
    own, dropped with it, so no z-dependent row stays on the family."""
    pw = PowerTable(fam.q)
    basis = [pw[0]]
    for f, g in zip(pw.factors(fam.a * z, fam.N), pw.factors(fam.a / z, fam.N)):
        basis.append(basis[-1] * f * g)
    return basis


def _explicit_value(row, basis) -> tuple:
    """(value, cancellation scale) of a degree's coefficient row at a point's
    basis row: the sum of C_k phi_k and the sum of |C_k phi_k|, each added in
    increasing k from the first product."""
    (k, c), *rest = row
    total = c * basis[k]
    magnitude = abs(total)
    for k, c in rest:
        term = c * basis[k]
        total = total + term
        magnitude = magnitude + abs(term)
    return total, magnitude


# The relative accuracy every explicit value keeps.  The rounding error of a
# sum is at most its term magnitude times the unit roundoff u, up to the term
# count (Higham, Accuracy and Stability of Numerical Algorithms, 4.2), so a
# value whose magnitude times u exceeds this times |R_n(x)| is summed again.
# In double (u = 2^-53) that is a magnitude above 1e6 |R_n(x)|; at P working
# digits u = 10^(1-P) / 2.
_EXPLICIT_ACCURACY = 1e6 * 2.0 ** -53


def eval_explicit(tri: TridiagonalSystem, zs, recurrence=None) -> list:
    """One row per degree n = 0..N, each [R_n(x(z)) for z in zs] with
    x = (z + 1/z)/2, from the branch-appropriate explicit expression of the
    table's family.

    Each degree's coefficient row is computed once (:func:`_explicit_plan`)
    and each point's basis row (az, a/z; q)_k once (:func:`_point_factors`),
    so each value is one dot product of the two (:func:`_explicit_value`).
    Degrees are evaluated in order, so a singular denominator raises what
    the lowest degree that has one raises.

    Agrees with the forward recurrence; the two routes together cross-check
    the coefficient tables and the series normalizations.  The terminating
    sums cancel badly for small q and large N (term scale grows like
    q**(-j^2)).  One rule serves every precision: with u the working unit
    roundoff and r = R_n(x) read from one recurrence pass per point (the
    caller's ``recurrence`` rows ``tri.values(x, N)``, when it has them), a
    value whose term magnitude times u exceeds ``_EXPLICIT_ACCURACY`` |r| is
    summed again in Decimal (:func:`_rerun`), a complex point's as an
    :class:`~qortho.scalars.ExtendedComplex`, and rounded back to the
    working type.  A value or an r that is not finite raises
    ``OverflowError``.  A family with c = a, a / c = q^k or a c q^m = 1
    within the strands raises :class:`DegenerateFamilyError`; a^2 q^m = 1
    or c^2 q^m = 1, which put one lattice point twice on a strand but no
    zero in the expansion, is evaluated.
    """
    fam = tri.family
    if any(z == 0 for z in zs):
        raise ValueError("z must be nonzero")
    # c = a, a / c = q^k or a c q^m = 1 within the strands puts an exact
    # zero in a denominator of the expansion.
    fam.require_distinct_strands("the explicit expansion is undefined", same_strand=False)
    points = [_point_factors(fam, z) for z in zs]
    recurrence = recurrence or [tri.values((z + 1 / z) / 2, fam.N) for z in zs]
    digits = working_precision(fam.q)
    # magnitude u > ACC |r| with both sides scaled by the integer 1/u, exactly.
    trigger = typed_float(_EXPLICIT_ACCURACY, fam.q) * (
        2 ** 53 if digits is None else 2 * 10 ** (digits - 1))
    rows, flagged = [], []
    for n in range(fam.N + 1):
        plan = _explicit_plan(fam, n)
        row = []
        for i, point in enumerate(points):
            value, magnitude = _explicit_value(plan, point)
            r = abs(recurrence[i][n])
            if not (is_finite(magnitude) and is_finite(r)):
                raise OverflowError("the explicit expansion of degree %d or its recurrence "
                                    "value is not finite" % n)
            # An exact zero of R_n has no relative accuracy to keep.
            if magnitude > trigger * r > 0:
                flagged.append((n, i, magnitude / r))
            row.append(value)
        rows.append(row)
    if flagged:
        _rerun(fam, zs, rows, flagged, digits)
    return rows


def _rerun(fam: ParaRacahFamily, zs, rows, flagged, digits) -> None:
    """Sum again, in place in ``rows``, the flagged (n, point index,
    magnitude / |R_n|) values of one :func:`eval_explicit` call, all at one
    precision: the most digits any of them lost, ceil(log10(magnitude /
    |R_n|)), plus the run's own, its ``digits`` or 16 in binary64.
    Coefficient rows and basis rows are built for the flagged degrees and
    points only, and each value is rounded back to its working type."""
    worst = max(ratio for _, _, ratio in flagged)
    lost = math.ceil(worst.log10() if is_extended(worst) else math.log10(worst))
    with extended_precision(lost + (digits or 16)):
        hi_fam = fam.replace(a=to_extended(fam.a), c=to_extended(fam.c),
                             alpha=to_extended(fam.alpha), q=to_extended(fam.q))
        plans = {n: _explicit_plan(hi_fam, n) for n in sorted({n for n, _, _ in flagged})}
        points = {i: _point_factors(hi_fam, to_extended(zs[i]))
                  for i in sorted({i for _, i, _ in flagged})}
        values = [_explicit_value(plans[n], points[i])[0] for n, i, _ in flagged]
    # float and complex round to binary64, unary plus to the working digits.
    for (n, i, _), value in zip(flagged, values):
        rows[n][i] = type(rows[n][i])(value) if digits is None else +value


# ---------------------------------------------------------------------------
# Lattice and weights
# ---------------------------------------------------------------------------


def lattice(fam: ParaRacahFamily) -> tuple:
    """The interleaved bi-lattice points: x = (1/z + z)/2 at the
    a-strand z = a q^s (j+1 points) and the c-strand z = c q^s (N-j
    points, one fewer when N is even), in
    :func:`~qortho.recurrence.interleave` order.  Points are kept in this
    index order (not sorted) because the weight tables are index-keyed.
    """
    a, c, _, q, j = _unpack(fam)
    pw = fam.powers()
    zs = interleave([a * pw[s] for s in range(j + 1)],
                    [c * pw[s] for s in range(fam.N - j)])
    return tuple((1 / z + z) / 2 for z in zs)


def _k_norm(fam: ParaRacahFamily):
    """Closed-form normalization constant of the weight tables.

    Equals +/- sqrt(u_1...u_N) evaluated at alpha = 1/2; the sign is the one
    that makes the printed weight tables positive.  At even N it divides by
    (a - c q^j)(1 - a c q^(2j))(c - a q^(j+1)), so a = c q^j, a c q^(2j) = 1
    or c = a q^(j+1), compared exactly, raises :class:`DegenerateFamilyError`.
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
    if 0 in (a - c * pw[j], 1 - a * c * pw[2 * j], c - a * pw[j + 1]):
        raise DegenerateFamilyError("a = c q^j, a c q^(2j) = 1 or c = a q^(j+1) at even N "
                                    "makes the weights' normalization singular; "
                                    "weights are undefined")
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
    the (head, rows) form of :func:`~qortho.recurrence.weight_table`, each
    from one ``strand`` at z = x q^s, s <= m, y the other strand's parameter:
    row s is q^(step s + shift) (1 - x^2 q^(2s)) (x^2, q^-m, ac, (x/y) q^(1-L); q)_s
    over den0 (q, (x/y) q, x^2 q^(m+1), ac q^L; q)_s, den0 = (q, x^2 q; q)_m
    (y/x, ac; q)_L (1 - x^2).  (m, L) is (j, j+1) at odd N; at even N the
    Christoffel route fixes (j, j) on the a-strand and (j-1, j+1) on the
    c-strand.  At x = 1 (or a Decimal x^2 rounding to 1) den0's 1 - x^2 cancels
    against (x^2; q)_s = (1 - x^2) (x^2 q; q)_(s-1), and s = 0 reads 1."""
    a, c, _, q, j = _unpack(fam)
    pw = fam.powers()
    qp = pw.pochhammer
    # q^(2s) is pw[s + s]: only recurrence writes a strand index as 2 times s.

    def strand(x, y, m, L, head, step, shift):
        xx, cut = x * x, 1 - x * x == 0
        den0 = qp(q, m) * qp(xx * q, m) * qp(y / x, L) * qp(a * c, L) * (pw[0] if cut else 1 - xx)
        return head, [((pw[step * s + shift], *((pw[0], pw[0]) if cut and not s else (
                            1 - xx * pw[s + s], qp(xx * q, s - 1) if cut else qp(xx, s))),
                        qp(pw[-m], s), qp(a * c, s), qp((x / y) * pw[1 - L], s)),
                       den0 * qp(q, s) * qp((x / y) * q, s) * qp(xx * pw[m + 1], s)
                       * qp(a * c * pw[L], s)) for s in range(m + 1)]
    if fam.odd:
        return tuple(strand(x, y, j, j + 1, (k_norm, 2 ** (2 * j + 1), x ** j, y ** (j + 1)),
                            2 * j + 1, (j + 1) * j) for x, y in ((a, c), (c, a)))
    return (strand(a, c, j, j, (k_norm, a ** j, c ** j), 2 * j, 0),
            strand(c, a, j - 1, j + 1, (k_norm, a ** (j + 1), c ** (j - 1)), 2 * j, 0))


def _weight_leads(fam: ParaRacahFamily, al):
    """Each strand's factor of the deformation alpha = al in its weights."""
    return (-2 * (1 - al), 2 * al) if fam.odd else (1 - al, -al)


def weights(fam: ParaRacahFamily) -> LatticeWeights:
    """Orthogonality weights of the family from the closed-form tables.

    The weights satisfy sum_s w_s R_n(x_s) R_m(x_s) = delta_{nm} h_n, with
    h_n the family's recurrence table's, and the strand sums are 1 - alpha
    (even indices) and alpha (odd indices).  A family outside the positivity
    region still gets its weights, some of them negative: a signed measure.
    Returns the :func:`lattice` points with these weights and the
    alpha = 1/2 ones.
    """
    fam.require_distinct_strands()
    points = lattice(fam)
    k_norm = _k_norm(fam)
    strands = _weight_strands(fam, k_norm)
    w = weight_table(strands, _weight_leads(fam, fam.alpha))
    w_half = weight_table(strands, _weight_leads(fam, typed_float(0.5, fam.q)))
    return LatticeWeights(points, w, w_half)


# ---------------------------------------------------------------------------
# q-difference operator
# ---------------------------------------------------------------------------


def qdiff_eigenvalue(fam: ParaRacahFamily, n: int):
    """lambda_n = q^-n (1 - q^n)(1 - q^{n-N}); degenerate under n -> N-n."""
    pw = fam.powers()
    return pw[-n] * (1 - pw[n]) * (1 - pw[n - fam.N])


def qdiff_residual(tri: TridiagonalSystem, zs) -> list:
    """[(LHS - RHS, operator scale) for z in zs] of the q-difference
    equation of the table's family, one such row per degree n = 0..N.

    The shift coefficient's numerator is the Askey-Wilson one at the
    truncation b = q^-j / a, d = q^(j+1-N) / c; its z-free powers of q and
    every lambda_n are computed once.  Each point costs one pass of the
    recurrence at each of qz, z and z/q, shared by every degree.
    """
    fam = tri.family
    a, c, _, q, j = _unpack(fam)
    N = fam.N
    pw = fam.powers()
    q_j, q_jN = pw[-j], pw[j + 1 - N]
    lams = [qdiff_eigenvalue(fam, n) for n in range(N + 1)]

    def numerator(z):
        return (1 - a * z) * (1 - q_j * z / a) * (1 - c * z) * (1 - q_jN * z / c)

    def values(z):
        return tri.values((z + 1 / z) / 2, N)
    return qdifference_residual(numerator, values, lams, q, zs)
