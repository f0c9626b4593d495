"""The q-para-Racah family: N+1 monic orthogonal polynomials on a
biexponential bi-lattice, obtained from the Askey-Wilson family through the
singular truncation abcd = q^(1-N).

All truncation limits are encoded as closed-form case tables, split on the
parity of N; no limits are taken at runtime.  The deformation parameter
alpha in (0, 1) moves a handful of recurrence coefficients around the middle
of the band without moving the spectrum; alpha = 1/2 is the persymmetric
point.

Polynomials are evaluated in the exponential variable z with
x = (z + 1/z)/2.  Lattice points carry their own z representatives
(a q^s and c q^s), so no x -> z inversion is ever needed on the grid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import mpmath

from .qseries import SeriesSpec, _series_eval_with_magnitude, qpochhammer
from .recurrence import normalization_products, tridiagonal
from .scalars import is_mp

__all__ = [
    "ParaRacahFamily",
    "LatticeWeights",
    "PositivityReport",
    "DegenerateFamilyError",
    "b_coefficient",
    "u_coefficient",
    "eval_recurrence",
    "eval_explicit",
    "limit_recurrence_ac",
    "lattice",
    "char_poly_eval",
    "char_poly_scale",
    "weights",
    "weights_from_christoffel",
    "qdiff_eigenvalue",
    "qdiff_residual",
    "positivity_check",
]

# Relative spacing below which the two lattice strands are treated as
# coincident (doubly degenerate spectrum).
_DEGENERATE_TOL = 1e-12


class DegenerateFamilyError(ArithmeticError):
    """The spectrum is doubly degenerate (c = a): weights are undefined."""


@dataclass(frozen=True)
class ParaRacahFamily:
    """Parameter set {a, c, alpha, q, N} with derived parity and j.

    Construction enforces only the structural constraints (real positive
    a, c, nome and deformation in (0,1), integer N >= 1).  The positivity
    region that guarantees an orthogonality measure is reported separately by
    :func:`positivity_check`, and c = a is rejected only where it matters
    (weights).
    """

    a: float
    c: float
    alpha: float
    q: float
    N: int

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise ValueError("nome q must satisfy 0 < q < 1")
        if not 0 < self.alpha < 1:
            raise ValueError("deformation alpha must satisfy 0 < alpha < 1")
        if self.N < 1 or self.N != int(self.N):
            raise ValueError("N must be an integer >= 1")
        if not self.a > 0 or not self.c > 0:
            raise ValueError("parameters a and c must be positive reals")

    @property
    def odd(self) -> bool:
        return self.N % 2 == 1

    @property
    def j(self) -> int:
        return (self.N - 1) // 2 if self.odd else self.N // 2

    @property
    def degenerate(self) -> bool:
        return abs(self.a - self.c) <= _DEGENERATE_TOL * max(self.a, self.c)


@dataclass
class LatticeWeights:
    """Bi-lattice points with (optionally) their orthogonality weights.

    Points are stored in interleaved index order: even indices on the
    a-strand, odd indices on the c-strand.  ``z_points`` holds the
    exponential representatives.  ``weights_half`` are the persymmetric
    (alpha = 1/2) weights, ``h`` the normalization products u_1...u_n, and
    ``k_norm`` the closed-form normalization constant of the weight tables.
    """

    points: tuple
    z_points: tuple
    weights: Optional[tuple] = None
    weights_half: Optional[tuple] = None
    h: Optional[tuple] = None
    k_norm: Optional[object] = None
    beta: Optional[object] = None
    positive_measure: Optional[bool] = None

    def weighted(self, fam, w, w_half, h, k_norm=None) -> "LatticeWeights":
        """These points with weights attached and the measure's sign flagged."""
        positive = all(v > 0 for v in w) and all(v > 0 for v in h[1:])
        return dataclasses.replace(
            self, weights=w, weights_half=w_half, h=h, k_norm=k_norm,
            beta=1 - 2 * fam.alpha, positive_measure=positive)


@dataclass(frozen=True)
class PositivityReport:
    """Two verdicts: the printed parameter inequalities and the direct u-scan.

    The two can disagree (the inequalities are necessary for the odd case but
    not sharp for the even one), which is why both are reported.
    """

    conditions_ok: bool
    failed_conditions: tuple
    u_positive: bool
    min_u: float


def _unpack(fam):
    return fam.a, fam.c, fam.alpha, fam.q, fam.j


def b_coefficient(fam: ParaRacahFamily, n: int):
    """Diagonal recurrence coefficient b_n, 0 <= n <= N."""
    if not 0 <= n <= fam.N:
        raise ValueError("b_n requires 0 <= n <= N")
    a, c, al, q, j = _unpack(fam)
    if fam.odd:
        if n == j or n == j + 1:
            w = al if n == j else 1 - al
            mid = (w * (c - a) * (q ** (j + 1) - 1) * q ** -j * (a * c * q ** j - 1)
                   / (2 * a * c * (q - 1)))
            tail = ((q ** j - 1) * q ** -j * (c - a * q) * (a * c * q ** (j + 1) - 1)
                    / (2 * a * c * (q * q - 1)))
            return (a + 1 / a) / 2 + mid - tail
        return ((a + c) * (q ** (j + 1) + 1) * q ** n * (a * c * q ** j + 1)
                / (2 * a * c * (q ** j + q ** n) * (q ** (j + 1) + q ** n)))
    t1 = ((q ** n - 1) * (a * c * q ** (2 * j) - q ** n) * (a * q ** (j + 1) - c * q ** n)
          / (2 * a * c * (q ** j + q ** n) * (q ** (2 * j + 1) - q ** (2 * n))))
    t2 = ((q ** (2 * j) - q ** n) * (a * c * q ** n - 1) * (c * q ** j - a * q ** (n + 1))
          / (2 * a * c * (q ** j + q ** n) * (q ** (2 * j) - q ** (2 * n + 1))))
    return (a + 1 / a) / 2 + t1 + t2


def u_coefficient(fam: ParaRacahFamily, n: int):
    """Sub-diagonal recurrence coefficient u_n, 1 <= n <= N+1.

    u_{N+1} vanishes identically; it is exposed only so the truncation can be
    checked directly.
    """
    if not 1 <= n <= fam.N + 1:
        raise ValueError("u_n requires 1 <= n <= N+1")
    a, c, al, q, j = _unpack(fam)
    if fam.odd:
        if n == j + 1:
            return ((1 - al) * al * (c - a) ** 2 * q ** (-2 * j)
                    * (q ** (j + 1) - 1) ** 2 * (a * c * q ** j - 1) ** 2
                    / (4 * a * a * c * c * (q - 1) ** 2))
        return ((q ** n - 1) * (q ** n - q ** (2 * j + 2))
                * (a * c * q ** n - q) * (q ** n - a * c * q ** (2 * j + 1))
                * (a * q ** n - c * q ** (j + 1)) * (c * q ** n - a * q ** (j + 1))
                / (4 * a * a * c * c * (q ** (j + 1) + q ** n) ** 2
                   * (q ** (2 * n) - q ** (2 * j + 1)) * (q ** (2 * n) - q ** (2 * j + 3))))
    if n == j or n == j + 1:
        w = (1 - al) if n == j else al
        return (w * (c - a) * q ** (-2 * j) * (q ** j - 1) * (q ** (j + 1) - 1)
                * (a * q - c) * (a * c * q ** j - 1) * (a * c * q ** j - q)
                / (4 * a * a * c * c * (q - 1) ** 2 * (q + 1)))
    return ((q ** n - 1) * (q ** n - q ** (2 * j + 1))
            * (a * c * q ** n - q) * (q ** n - a * c * q ** (2 * j))
            * (a * q ** n - c * q ** j) * (c * q ** n - a * q ** (j + 1))
            / (4 * a * a * c * c * (q ** j + q ** n) * (q ** (j + 1) + q ** n)
               * (q ** (2 * j + 1) - q ** (2 * n)) ** 2))


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
    if fam.odd:
        if n == j:
            A = (al * (1 - a * c * q ** j) * (c - a) * (1 - q ** (-j - 1))
                 / (a * c * (1 - 1 / q)))
        else:
            A = ((1 - a * c * q ** n) * (c - a * q ** (n - j)) * (1 - q ** (n - 2 * j - 1))
                 / (a * c * (1 - q ** (2 * n - 2 * j - 1)) * (1 + q ** (n - j))))
        if n == j + 1:
            C = ((1 - al) * (1 - q ** (j + 1)) * (a - c) * (a * c - q ** -j)
                 / (a * c * (1 - q)))
        else:
            C = ((1 - q ** n) * (a - c * q ** (n - j - 1)) * (a * c - q ** (n - 2 * j - 1))
                 / (a * c * (1 + q ** (n - j - 1)) * (1 - q ** (2 * n - 2 * j - 1))))
        return A, C
    if n == j:
        A = al * (1 - a * c * q ** j) * (1 - (a / c) * q) * (1 - q ** -j) / (a * (1 - q))
        C = ((1 - al) * a * (1 - q ** j) * (1 - (c / a) / q) * (1 - q ** -j / (a * c))
             / (1 - 1 / q))
        return A, C
    A = ((1 - q ** (n - j)) * (1 - a * c * q ** n) * (1 - (a / c) * q ** (n - j + 1))
         * (1 - q ** (n - 2 * j))
         / (a * (1 - q ** (2 * n - 2 * j)) * (1 - q ** (2 * n - 2 * j + 1))))
    C = (a * (1 - q ** n) * (1 - (c / a) * q ** (n - j - 1)) * (1 - q ** (n - 2 * j) / (a * c))
         * (1 - q ** (n - j))
         / ((1 - q ** (2 * n - 2 * j - 1)) * (1 - q ** (2 * n - 2 * j))))
    return A, C


def eval_recurrence(fam: ParaRacahFamily, n: int, z, tri=None):
    """Monic R_n at x = (z + 1/z)/2 by forward recurrence.

    n = N+1 is allowed and produces the characteristic polynomial of the
    Jacobi matrix, whose zeros are the orthogonality lattice.  ``tri`` is
    the family's table from :func:`tridiagonal`; a caller evaluating many
    points passes it instead of having it refilled on every call.
    """
    if not 0 <= n <= fam.N + 1:
        raise ValueError("recurrence evaluation requires 0 <= n <= N+1")
    if z == 0:
        raise ValueError("z must be nonzero")
    if tri is None:
        tri = tridiagonal(fam)
    return tri.values((z + 1 / z) / 2, n)[-1]


# ---------------------------------------------------------------------------
# Explicit hypergeometric expressions
# ---------------------------------------------------------------------------
#
# The degree splits into branches.  Odd N = 2j+1: for n < j and n > j+1 the
# polynomial is a single (resp. a combination of two) terminating series; at
# n = j and n = j+1 parameter cancellations force a truncated sum plus, for
# n = j+1, one alpha-weighted extra term.  Even N = 2j needs no middle
# branch.  Every series below is summed with an explicit truncation degree:
# relying on floating-point zeros of (q^-m; q)_k would be fragile.


def _eta(fam: ParaRacahFamily, n: int):
    """Monic normalization of the explicit expansion."""
    a, c, al, q, j = _unpack(fam)
    qp = qpochhammer
    sign_pow = (-2 * a) ** n * q ** (n * (n + 1) // 2)
    if fam.odd:
        if n <= j:
            num = (qp(q, q, n) * qp(q ** -j, q, n)
                   * qp((a / c) * q ** -j, q, n) * qp(a * c, q, n))
            den = qp(q ** (n - 2 * j - 1), q, n) * qp(q ** -n, q, n) * sign_pow
            return num / den
        num = (al * qp(q ** -j, q, j) * qp(q, q, n - j - 1)
               * qp((a / c) * q ** -j, q, n) * qp(a * c, q, n) * qp(q, q, n))
        den = (qp(q ** (n - 2 * j - 1), q, 2 * j + 1 - n) * qp(q, q, 2 * n - 2 * j - 2)
               * qp(q ** -n, q, n) * sign_pow)
        return num / den
    if n <= j:
        num = (qp(q, q, n) * qp(q ** -j, q, n)
               * qp((a / c) * q ** (-j + 1), q, n) * qp(a * c, q, n))
        den = qp(q ** (n - 2 * j), q, n) * qp(q ** -n, q, n) * sign_pow
        return num / den
    num = (al * qp(q ** -j, q, j) * qp(q, q, n - j - 1)
           * qp((a / c) * q ** (-j + 1), q, n) * qp(a * c, q, n) * qp(q, q, n))
    den = (qp(q ** (n - 2 * j), q, 2 * j - n) * qp(q, q, 2 * n - 2 * j - 1)
           * qp(q ** -n, q, n) * sign_pow)
    return num / den


def _middle_sum(fam, z, degree):
    """sum_{k<=degree} (q^{-j-1}, az, a/z; q)_k q^k / (q, ac, (a/c)q^{-j}; q)_k."""
    a, c, _, q, j = _unpack(fam)
    num = (q ** (-j - 1), a * z, a / z)
    den = (q, a * c, (a / c) * q ** -j)
    return _series_eval_with_magnitude(SeriesSpec(num, den, q, q, truncation=degree))


def _explicit_value(fam: ParaRacahFamily, n: int, z):
    """Branch-appropriate explicit value together with its cancellation scale.

    The scale is |eta| times the sum of absolute series terms; roundoff in a
    binary64 evaluation is a small multiple of eps times this scale.
    """
    a, c, al, q, j = _unpack(fam)
    qp = qpochhammer
    eta = _eta(fam, n)
    if fam.odd:
        if n < j:
            num = (q ** -n, q ** (n - 2 * j - 1), a * z, a / z)
            den = (q ** -j, a * c, (a / c) * q ** -j, q)
            body, mag = _series_eval_with_magnitude(
                SeriesSpec(num, den, q, q, truncation=n))
            return eta * body, abs(eta) * mag
        if n == j:
            body, mag = _middle_sum(fam, z, j)
            return eta * body, abs(eta) * mag
        if n == j + 1:
            extra_num = (qp(q ** (-j - 1), q, j + 1) * qp(a * z, q, j + 1)
                         * qp(a / z, q, j + 1) * q ** (j + 1))
            extra_den = (al * qp(q, q, j + 1) * qp(a * c, q, j + 1)
                         * qp((a / c) * q ** -j, q, j + 1))
            body, mag = _middle_sum(fam, z, j)
            extra = extra_num / extra_den
            return eta * (body + extra), abs(eta) * (mag + abs(extra))
        head_num = (q ** -n, q ** (n - 2 * j - 1), a * z, a / z)
        head_den = (q ** -j, a * c, (a / c) * q ** -j, q)
        head, head_mag = _series_eval_with_magnitude(
            SeriesSpec(head_num, head_den, q, q, truncation=2 * j + 1 - n))
        pref_num = (qp(q ** (n - 2 * j - 1), q, 2 * j + 1 - n)
                    * qp(q ** -n, q, j + 1) * qp(a * z, q, j + 1) * qp(a / z, q, j + 1)
                    * qp(q, q, n - j - 1) * q ** (j + 1))
        pref_den = (al * qp(q ** -j, q, j) * qp(q, q, j + 1)
                    * qp(a * c, q, j + 1) * qp((a / c) * q ** -j, q, j + 1))
        tail_num = (q ** (j + 1 - n), q ** (n - j),
                    a * q ** (j + 1) * z, a * q ** (j + 1) / z)
        tail_den = (q ** (j + 2), a * c * q ** (j + 1), (a / c) * q, q)
        tail, tail_mag = _series_eval_with_magnitude(
            SeriesSpec(tail_num, tail_den, q, q, truncation=n - j - 1))
        pref = pref_num / pref_den
        return (eta * (head + pref * tail),
                abs(eta) * (head_mag + abs(pref) * tail_mag))
    # even N = 2j
    if n <= j:
        num = (q ** -n, q ** (n - 2 * j), a * z, a / z)
        den = (q ** -j, a * c, (a / c) * q ** (-j + 1), q)
        body, mag = _series_eval_with_magnitude(
            SeriesSpec(num, den, q, q, truncation=n))
        return eta * body, abs(eta) * mag
    head_num = (q ** -n, q ** (n - 2 * j), a * z, a / z)
    head_den = (q ** -j, a * c, (a / c) * q ** (-j + 1), q)
    head, head_mag = _series_eval_with_magnitude(
        SeriesSpec(head_num, head_den, q, q, truncation=2 * j - n))
    pref_num = (qp(q ** (n - 2 * j), q, 2 * j - n)
                * qp(q ** -n, q, j + 1) * qp(a * z, q, j + 1) * qp(a / z, q, j + 1)
                * qp(q, q, n - j) * q ** (j + 1))
    pref_den = (al * qp(q ** -j, q, j) * qp(q, q, j + 1)
                * qp(a * c, q, j + 1) * qp((a / c) * q ** (-j + 1), q, j + 1))
    tail_num = (q ** (j + 1 - n), q ** (n - j + 1),
                a * q ** (j + 1) * z, a * q ** (j + 1) / z)
    tail_den = (q ** (j + 2), a * c * q ** (j + 1), (a / c) * q * q, q)
    tail, tail_mag = _series_eval_with_magnitude(
        SeriesSpec(tail_num, tail_den, q, q, truncation=n - j - 1))
    pref = pref_num / pref_den
    return (eta * (head + pref * tail),
            abs(eta) * (head_mag + abs(pref) * tail_mag))


# Promote a binary64 explicit evaluation once its cancellation scale says the
# result cannot be certified to ~1e-9 relative accuracy.
_PROMOTION_RATIO = 1e6
_PROMOTION_DPS = 40


def eval_explicit(fam: ParaRacahFamily, n: int, z):
    """R_n at x = (z + 1/z)/2 from the branch-appropriate explicit expression.

    Agrees with :func:`eval_recurrence`; the two routes together cross-check
    the coefficient tables and the series normalizations.  The terminating
    sums cancel badly for small q and large N (term scale grows like
    q**(-j^2)); when the tracked term magnitude shows binary64 cannot hold
    ~1e-9 relative accuracy the evaluation transparently reruns at extended
    precision and is rounded back.
    """
    if not 0 <= n <= fam.N:
        raise ValueError("explicit evaluation requires 0 <= n <= N")
    if z == 0:
        raise ValueError("z must be nonzero")
    value, magnitude = _explicit_value(fam, n, z)
    if is_mp(value) or magnitude <= _PROMOTION_RATIO * abs(value):
        return value
    with mpmath.workdps(_PROMOTION_DPS):
        hi_fam = dataclasses.replace(
            fam, a=mpmath.mpf(fam.a), c=mpmath.mpf(fam.c),
            alpha=mpmath.mpf(fam.alpha), q=mpmath.mpf(fam.q))
        hi = _explicit_value(hi_fam, n, mpmath.mpmathify(z))[0]
        if isinstance(z, complex):
            return complex(hi)
        return float(hi.real if hasattr(hi, "real") else hi)


# ---------------------------------------------------------------------------
# Lattice, characteristic polynomial, weights
# ---------------------------------------------------------------------------


def lattice(fam: ParaRacahFamily) -> LatticeWeights:
    """The interleaved bi-lattice (points and z representatives only).

    Even indices 2s sit on the a-strand, odd indices 2s+1 on the c-strand;
    the c-strand is one point shorter when N is even.  Points are kept in
    this index order (not sorted) because the weight tables are index-keyed.
    """
    a, c, _, q, j = _unpack(fam)
    pts = [None] * (fam.N + 1)
    zs = [None] * (fam.N + 1)
    for s in range(j + 1):
        z = a * q ** s
        zs[2 * s] = z
        pts[2 * s] = (1 / z + z) / 2
    c_top = j if fam.odd else j - 1
    for s in range(c_top + 1):
        z = c * q ** s
        zs[2 * s + 1] = z
        pts[2 * s + 1] = (1 / z + z) / 2
    return LatticeWeights(points=tuple(pts), z_points=tuple(zs))


def char_poly_eval(fam: ParaRacahFamily, z):
    """The factorized characteristic polynomial, up to an overall constant.

    Proportional to eval_recurrence(fam, N+1, z); the constant is fitted once
    per family by :func:`char_poly_scale`.
    """
    if z == 0:
        raise ValueError("z must be nonzero")
    a, c, _, q, j = _unpack(fam)
    c_len = j + 1 if fam.odd else j
    return (qpochhammer(a * z, q, j + 1) * qpochhammer(a / z, q, j + 1)
            * qpochhammer(c * z, q, c_len) * qpochhammer(c / z, q, c_len))


# Fixed fitting point for the characteristic-polynomial scale: negative, so
# it can never collide with the (positive) z representatives of the lattice.
_SCALE_Z = -1.25


def char_poly_scale(fam: ParaRacahFamily):
    """Constant kappa with R_{N+1}(x(z)) = kappa * char_poly_eval(z)."""
    return eval_recurrence(fam, fam.N + 1, _SCALE_Z) / char_poly_eval(fam, _SCALE_Z)


def _k_norm(fam: ParaRacahFamily):
    """Closed-form normalization constant of the weight tables.

    Equals +/- sqrt(u_1...u_N) evaluated at alpha = 1/2; the sign is the one
    that makes the printed weight tables positive.
    """
    a, c, _, q, j = _unpack(fam)
    qp = qpochhammer
    q2 = q * q
    if fam.odd:
        num = ((a - c) * q ** -j * (q ** (j + 1) - 1) * (a * c * q ** j - 1)
               * qp(q ** -j, q, j) ** 2 * qp(q ** (-2 * j - 1), q, j)
               * qp(q, q, j) * qp(a * c, q, j)
               * qp((a / c) * q ** -j, q, j) * qp((c / a) * q ** -j, q, j)
               * qp(q ** (-2 * j) / (a * c), q, j))
        den = (a * c * (q - 1) * 2 ** (2 * j + 2)
               * qp(q ** (-2 * j - 1), q2, j) * qp(q ** (-2 * j), q2, j) ** 2
               * qp(q ** (1 - 2 * j), q2, j))
        return num / den
    # The printed even-case constant carries (ac/q; q)_{j+2} over (ac - q);
    # the shared root at ac = q is cancelled analytically here, leaving
    # -(ac; q)_{j+1}/q folded into the prefactor.
    num = (q ** (2 * j * j) * (c - a) * (1 + q ** j) * (1 - q ** (j + 1))
           * (1 - q ** (2 * j + 1)) * (c - a * q)
           * qp(q, q, j) * qp(q ** (-2 * j - 1), q, j) * qp(a * c, q, j + 1)
           * qp((c / a) * q ** (-j - 1), q, j)
           * qp(q ** (-2 * j) / (a * c), q, j) * qp((a / c) * q ** -j, q, j))
    den = ((1 - q) ** 2 * qp(q ** (-2 * j - 1), q2, j) ** 2 * qp(-q, q, j) ** 2
           * (a - c * q ** j) * (1 - a * c * q ** (2 * j)) * (c - a * q ** (j + 1)))
    return -num / den


def _weight_at(fam: ParaRacahFamily, index: int, k_norm):
    """Closed-form weight at interleaved lattice index."""
    a, c, al, q, j = _unpack(fam)
    qp = qpochhammer
    s, on_c_strand = divmod(index, 2)
    if fam.odd:
        if not on_c_strand:
            num = (-2 * (1 - al) * k_norm * 2 ** (2 * j + 1) * a ** j * c ** (j + 1)
                   * q ** ((2 * j + 1) * s + (j + 1) * j)
                   * (1 - a * a * q ** (2 * s))
                   * qp(a * a, q, s) * qp(q ** -j, q, s)
                   * qp(a * c, q, s) * qp((a / c) * q ** -j, q, s))
            den = (qp(q, q, j) * qp(a * a * q, q, j)
                   * qp(c / a, q, j + 1) * qp(a * c, q, j + 1) * (1 - a * a)
                   * qp(q, q, s) * qp((a / c) * q, q, s)
                   * qp(a * a * q ** (j + 1), q, s) * qp(a * c * q ** (j + 1), q, s))
            return num / den
        num = (2 * al * k_norm * 2 ** (2 * j + 1) * c ** j * a ** (j + 1)
               * q ** ((2 * j + 1) * s + (j + 1) * j)
               * (1 - c * c * q ** (2 * s))
               * qp(c * c, q, s) * qp(q ** -j, q, s)
               * qp(a * c, q, s) * qp((c / a) * q ** -j, q, s))
        den = (qp(q, q, j) * qp(c * c * q, q, j)
               * qp(a / c, q, j + 1) * qp(a * c, q, j + 1) * (1 - c * c)
               * qp(q, q, s) * qp((c / a) * q, q, s)
               * qp(c * c * q ** (j + 1), q, s) * qp(a * c * q ** (j + 1), q, s))
        return num / den
    if not on_c_strand:
        num = ((1 - al) * k_norm * a ** j * c ** j * q ** (2 * j * s)
               * (1 - a * a * q ** (2 * s))
               * qp(a * a, q, s) * qp(q ** -j, q, s)
               * qp(a * c, q, s) * qp((a / c) * q ** (-j + 1), q, s))
        # (c/a; q)_j here, one factor shorter than on the other strand: the
        # length is fixed by the Christoffel route and the strand-sum 1-alpha.
        den = (qp(q, q, j) * qp(a * a * q, q, j)
               * qp(c / a, q, j) * qp(a * c, q, j) * (1 - a * a)
               * qp(q, q, s) * qp((a / c) * q, q, s)
               * qp(a * a * q ** (j + 1), q, s) * qp(a * c * q ** j, q, s))
        return num / den
    num = (-al * k_norm * a ** (j + 1) * c ** (j - 1) * q ** (2 * j * s)
           * (1 - c * c * q ** (2 * s))
           * qp(c * c, q, s) * qp(q ** (-j + 1), q, s)
           * qp(a * c, q, s) * qp((c / a) * q ** -j, q, s))
    den = (qp(q, q, j - 1) * qp(c * c * q, q, j - 1)
           * qp(a / c, q, j + 1) * qp(a * c, q, j + 1) * (1 - c * c)
           * qp(q, q, s) * qp((c / a) * q, q, s)
           * qp(c * c * q ** j, q, s) * qp(a * c * q ** (j + 1), q, s))
    return num / den


def _require_simple_spectrum(fam):
    if fam.degenerate:
        raise DegenerateFamilyError(
            "c = a makes the spectrum doubly degenerate; weights are undefined"
        )


def weights(fam: ParaRacahFamily) -> LatticeWeights:
    """Orthogonality weights from the closed-form tables.

    The weights satisfy sum_s w_s R_n(x_s) R_m(x_s) = delta_{nm} h_n, and the
    strand sums are 1 - alpha (even indices) and alpha (odd indices).  A
    family outside the positivity region still gets weights, flagged as a
    signed measure.
    """
    _require_simple_spectrum(fam)
    lw = lattice(fam)
    k_norm = _k_norm(fam)
    w = tuple(_weight_at(fam, i, k_norm) for i in range(fam.N + 1))
    half = dataclasses.replace(fam, alpha=0.5)
    w_half = tuple(_weight_at(half, i, k_norm) for i in range(fam.N + 1))
    return lw.weighted(fam, w, w_half, normalization_products(fam), k_norm)


def _char_poly_derivative(points, s):
    """d/dx of the monic characteristic polynomial at its root points[s].

    R_{N+1} is monic with the lattice as its zero set, so the derivative is
    the exact product over the remaining linear factors.
    """
    out = 1.0
    xs = points[s]
    for k, xk in enumerate(points):
        if k != s:
            out = out * (xs - xk)
    return out


def weights_from_christoffel(fam: ParaRacahFamily) -> LatticeWeights:
    """Independent weight route: w_s = h_N / (R_N(x_s) R'_{N+1}(x_s)).

    R_N is evaluated by recurrence at the stored z representatives and the
    derivative comes from the factored characteristic polynomial.  Agrees
    with :func:`weights` point by point.
    """
    _require_simple_spectrum(fam)
    lw = lattice(fam)

    def route(t):
        f = t.family
        hN = t.h[-1]
        out = []
        for s, z in enumerate(lw.z_points):
            rN = eval_recurrence(f, f.N, z, t)
            if abs(rN) == 0:
                raise DegenerateFamilyError(
                    "R_N vanishes at a lattice point; configuration is degenerate"
                )
            out.append(hN / (rN * _char_poly_derivative(lw.points, s)))
        return tuple(out)

    tri = tridiagonal(fam)
    w = route(tri)
    w_half = route(tridiagonal(dataclasses.replace(fam, alpha=0.5)))
    return lw.weighted(fam, w, w_half, tri.h)


# ---------------------------------------------------------------------------
# q-difference operator
# ---------------------------------------------------------------------------


def qdiff_eigenvalue(fam: ParaRacahFamily, n: int):
    """lambda_n = q^-n (1 - q^n)(1 - q^{n-N}); degenerate under n -> N-n."""
    q = fam.q
    return q ** -n * (1 - q ** n) * (1 - q ** (n - fam.N))


def _shift_coefficient(fam: ParaRacahFamily, z):
    a, c, _, q, j = _unpack(fam)
    z2 = z * z
    den = (1 - z2) * (1 - q * z2)
    if abs(den) < 1e-12:
        raise ValueError("evaluation point too close to a shift-operator pole")
    c_exp = j if fam.odd else j - 1
    return ((1 - a * z) * (1 - q ** -j * z / a)
            * (1 - c * z) * (1 - q ** -c_exp * z / c)) / den


def qdiff_residual(fam: ParaRacahFamily, n: int, z, tri=None):
    """LHS - RHS of the q-difference equation plus the operator scale.

    ``tri`` is the family's table, as in :func:`eval_recurrence`.
    """
    if not 0 <= n <= fam.N:
        raise ValueError("q-difference residual requires 0 <= n <= N")
    q = fam.q
    coef_up = _shift_coefficient(fam, z)
    coef_dn = _shift_coefficient(fam, 1 / z)
    if tri is None:
        tri = tridiagonal(fam)
    r_up = eval_recurrence(fam, n, q * z, tri)
    r_mid = eval_recurrence(fam, n, z, tri)
    r_dn = eval_recurrence(fam, n, z / q, tri)
    lhs = qdiff_eigenvalue(fam, n) * r_mid
    t_up = coef_up * r_up
    t_mid = (coef_up + coef_dn) * r_mid
    t_dn = coef_dn * r_dn
    residual = lhs - (t_up - t_mid + t_dn)
    scale = max(abs(lhs), abs(t_up), abs(t_mid), abs(t_dn))
    return residual, scale


# ---------------------------------------------------------------------------
# Positivity
# ---------------------------------------------------------------------------


def positivity_check(fam: ParaRacahFamily) -> PositivityReport:
    """Evaluate the printed parameter inequalities and scan u_1..u_N > 0."""
    a, c, al, q, _ = _unpack(fam)
    failed = []
    if not 0 < q < 1:
        failed.append("0 < q < 1")
    if not 0 < al < 1:
        failed.append("0 < alpha < 1")
    if fam.degenerate:
        failed.append("c != a")
    ratio = a / c
    if not q < ratio < 1 / q:
        failed.append("q < a/c < 1/q")
    if not (a * c < 1 or a * c > q ** (1 - fam.N)):
        failed.append("ac < 1 or ac > q^(1-N)")
    min_u = min(tridiagonal(fam).u)
    return PositivityReport(
        conditions_ok=not failed,
        failed_conditions=tuple(failed),
        u_positive=min_u > 0,
        min_u=float(min_u),
    )
