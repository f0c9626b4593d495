"""The three-term recurrence engine and the conventions every family shares.

Every family here is a sequence of monic polynomials

    P_{n+1}(x) = (x - b_n) P_n(x) - u_n P_{n-1}(x),   P_{-1} = 0,  P_0 = 1,

and :func:`monic_values` is the one loop that evaluates it.  At an mpf point
of an mpf table that loop runs on mpmath's raw tuples (:mod:`qortho._mpfloops`):
each step is the ``mpmath.libmp`` call the mpf operator makes, at the
(prec, rounding) the operator reads, so every value is the operator loop's
bit for bit, without its type dispatch and the mpf it builds per step.  The
truncated families (q-para-Racah and q-para-Krawtchouk) fill a
:class:`TridiagonalSystem` once with :func:`tridiagonal` and read every
degree, the normalization products and the persymmetry residual from it.
The q-Racah recurrence maps its parent coefficients (A_n, C_n) to monic ones
with :func:`monic_coefficients` and feeds them to the same loop.

This module owns the other conventions the families share, each written
once: the bi-lattice order (:func:`interleave` puts one strand at the even
indices and the other at the odd ones, :meth:`LatticeWeights.strand_sums`
reads them back), the closed-form weights from their strand factors
(:func:`weight_table`), the two checks that evaluate a table at its kind's
lattice points (:func:`gram_errors` and :func:`weights_from_christoffel`),
the refusal of coincident strands
(:meth:`BiLatticeFamily.require_distinct_strands`), the q-difference
equation on x = (z + 1/z)/2 with its shift-operator pole guard
(:func:`qdifference_residual`), and the palindrome residual behind both
persymmetry checks (:func:`palindrome_residual`).

The deformation alpha enters b_n and u_n only at the splice n = j, j+1, so
:meth:`TridiagonalSystem.at_alpha` gives the same family's table at another
alpha by recomputing those entries and sharing every other one.

A table belongs to one verify run or one command and is never cached beyond
it: a table of mpmath values built at one working precision must not be
read at another, nor deformed by ``at_alpha`` at another.  A family keeps
the powers of its q and the (base; q)_k of its z-free bases for as long as
it lives, one table per working precision (:meth:`BiLatticeFamily.powers`).
"""
from __future__ import annotations

import sys
from functools import reduce
from operator import attrgetter, mul

from .qseries import PowerTable
from .scalars import all_mpf, max_keep_nan, sqrt, working_precision

__all__ = [
    "Record",
    "DegenerateFamilyError",
    "BiLatticeFamily",
    "TridiagonalSystem",
    "LatticeWeights",
    "monic_values",
    "monic_coefficients",
    "interleave",
    "weight_table",
    "gram_errors",
    "weights_from_christoffel",
    "family_module",
    "tridiagonal",
    "qdifference_residual",
    "palindrome_residual",
    "persymmetry_residual",
]


# Relative spacing below which the two lattice strands of a family are
# treated as coincident (doubly degenerate spectrum).
_DEGENERATE_TOL = 1e-12


class Record:
    """Value semantics for a record class: ``replace``, ``==`` and repr.

    A subclass names its fields (two or more) in a ``_fields`` tuple, in
    ``__init__`` order, and writes its ``__init__`` out field by field;
    ``replace`` builds the copy through that ``__init__``, so its checks run
    again.  Equal records have the same type and equal fields.
    """

    def replace(self, **changes):
        """A copy with the named fields changed."""
        values = dict(zip(self._fields, self._values()))
        values.update(changes)
        return type(self)(**values)

    def _values(self) -> tuple:
        return attrgetter(*self._fields)(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class DegenerateFamilyError(ArithmeticError):
    """The two strands coincide (c = a, Delta = 1): weights are undefined."""


class BiLatticeFamily(Record):
    """Checks and derived indices shared by the truncated families.

    Subclasses are immutable records with fields ``alpha``, ``q`` and ``N``
    beside their lattice parameters; their ``__init__`` calls
    :meth:`_check_shared` before its own checks on those parameters and
    stores each field in the instance ``__dict__``.  A family hashes by
    value.  N = 2j+1 when ``odd``, N = 2j otherwise.  alpha enters the
    recurrence coefficients b_n and u_n only at n = j, j+1, which is what
    :meth:`TridiagonalSystem.at_alpha` relies on; it must run at the working
    precision that built the table it deforms.  A subclass says when its
    strands coincide (``degenerate``) and how (``_coincident_strands``).
    """

    @staticmethod
    def _check_shared(alpha, q, N):
        if not 0 < q < 1:
            raise ValueError("nome q must satisfy 0 < q < 1")
        if not 0 < alpha < 1:
            raise ValueError("deformation alpha must satisfy 0 < alpha < 1")
        if N < 1 or N != int(N):
            raise ValueError("N must be an integer >= 1")

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to %r: a family is immutable; "
                             "use replace()" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r: a family is immutable" % name)

    def __hash__(self):
        return hash(self._values())

    def require_distinct_strands(self, undefined="weights are undefined"):
        """Raise :class:`DegenerateFamilyError` if the strands coincide."""
        if self.degenerate:
            raise DegenerateFamilyError("%s; %s" % (self._coincident_strands, undefined))

    _powers = None  # {working precision: PowerTable}, made by powers()

    def powers(self) -> PowerTable:
        """The family's :class:`~qortho.qseries.PowerTable` at the working
        precision in force; kept outside ``_fields``, so ``==``, hash, repr
        and ``replace`` never see it.  Fetch it once per formula call."""
        q = self.q
        key = None if type(q) is float else working_precision(q)
        tables = self._powers
        if tables is None:
            tables = self.__dict__["_powers"] = {}
        table = tables.get(key)
        if table is None:
            table = tables[key] = PowerTable(q)
        return table

    @property
    def odd(self) -> bool:
        return self.N % 2 == 1

    @property
    def j(self) -> int:
        return self.N // 2


def monic_values(b, u, x) -> list:
    """[P_0(x), ..., P_n(x)] with n = min(len(b), len(u)).

    ``u[m]`` multiplies P_{m-1}; u_0 is never read (callers pass 0.0).
    P_1 = x - b_0 and P_2 = (x - b_1) P_1 - u_1 are written out: the general
    step's products by P_0 = 1 and P_{-1} = 0 are exact.  With an mpf ``x``,
    ``b`` and ``u[1:]`` the same loop runs on raw tuples
    (:mod:`qortho._mpfloops`), bit for bit.
    """
    if all_mpf((x,), b, u[1:]):
        from . import _mpfloops
        return _mpfloops.monic_values(b, u, x)
    out = [1.0]
    # One iterator: each inner loop takes every later step, so the outer
    # loops run at most once.
    steps = zip(b, u)
    for b0, _ in steps:
        prev = cur = x - b0
        out.append(cur)
        for b1, u1 in steps:
            cur = (x - b1) * cur - u1
            out.append(cur)
            for bm, um in steps:
                cur, prev = (x - bm) * cur - um * prev, cur
                out.append(cur)
    return out


def monic_coefficients(ac, n, shift, scale) -> tuple:
    """Monic b_0..b_{n-1} and u_0..u_{n-1} (u_0 = 0.0) of a parent recurrence

        X p_m = A_m p_{m+1} + (shift - A_m - C_m) p_m + C_m p_{m-1}

    in the variable X = scale * x, with (A_m, C_m) = ac(m).
    """
    b, u = [], []
    prev_A = None
    for m in range(n):
        A, C = ac(m)
        b.append((shift - A - C) / scale)
        u.append(0.0 if m == 0 else prev_A * C / scale ** 2)
        prev_A = A
    return b, u


def interleave(even, odd) -> tuple:
    """The bi-lattice order: even[s] at index 2s and odd[s] at 2s+1.

    ``odd`` has as many entries as ``even`` (N odd) or one fewer (N even).
    """
    out = [None] * (len(even) + len(odd))
    out[0::2], out[1::2] = even, odd
    return tuple(out)


def weight_table(strands, leads) -> tuple:
    """Closed-form weights in :func:`interleave` order.  Per strand, (head,
    rows) holds its point-free factors and a (row, den) per point s, and the
    weight at s is lead * head[0] * ... * row[0] * ... / den, left to right,
    with lead the strand's factor of alpha."""
    tables = []
    for lead, (head, rows) in zip(leads, strands):
        prefix = reduce(mul, head, lead)
        tables.append([reduce(mul, row, prefix) / den for row, den in rows])
    return interleave(*tables)


def gram_errors(tri, lw):
    """(max diagonal relative error, max scaled off-diagonal entry) of the
    Gram matrix sum_s w_s P_n(x_s) P_m(x_s) against diag(h_n), at the points
    ``lw.points`` of either kind; an error is NaN when an entry is.  With mpf
    values the dot products with m >= 1 run on raw tuples
    (:mod:`qortho._mpfloops`), bit for bit; column 0 holds the float P_0 = 1.0."""
    N = tri.family.N
    # Column n holds P_n at every lattice point; w_s P_n(x_s) is formed once
    # per (s, n) and then multiplied by P_m(x_s).
    cols = list(zip(*(tri.values(x, N) for x in lw.points)))
    weighted = [list(map(mul, lw.weights, col)) for col in cols]
    raw = all_mpf(*weighted, *cols[1:])
    if raw:
        from . import _mpfloops
    # Folded from a zero of the table's type: an mpf error meets no float.
    worst_diag = worst_off = type(tri.b[0])(0)
    for n in range(N + 1):
        for m in range(n + 1):
            if raw and m:
                g = _mpfloops.dot(weighted[n], cols[m])
            else:
                g = sum(map(mul, weighted[n], cols[m]))
            if n == m:
                worst_diag = max_keep_nan(worst_diag, abs(g - lw.h[n]) / abs(lw.h[n]))
            else:
                worst_off = max_keep_nan(
                    worst_off, abs(g) / sqrt(abs(lw.h[n] * lw.h[m])))
    return float(worst_diag), float(worst_off)


def _char_poly_derivative(points, s):
    """d/dx of the monic characteristic polynomial at its root points[s].

    R_{N+1} is monic with the lattice as its zero set, so the derivative is
    the exact product over the remaining linear factors.
    """
    xs = points[s]
    return reduce(mul, (xs - xk for k, xk in enumerate(points) if k != s))


def weights_from_christoffel(tri: TridiagonalSystem) -> LatticeWeights:
    """Independent weight route, w_s = h_N / (R_N(x_s) R'_{N+1}(x_s)), for
    either kind: R_N from the table and R'_{N+1} from its roots, both at the
    points x_s of the kind's ``lattice``.  Agrees with its ``weights``."""
    fam = tri.family
    fam.require_distinct_strands()
    lw = family_module(fam).lattice(fam)
    hN = tri.h[-1]
    w = []
    for s, x in enumerate(lw.points):
        rN = tri.values(x, fam.N)[-1]
        if abs(rN) == 0:
            raise DegenerateFamilyError(
                "R_N vanishes at a lattice point; configuration is degenerate")
        w.append(hN / (rN * _char_poly_derivative(lw.points, s)))
    return lw.weighted(tuple(w), tri.h)


class LatticeWeights(Record):
    """Bi-lattice points with (optionally) their orthogonality weights.

    Points are stored in :func:`interleave` order: even indices on the
    a-strand (Delta-strand for q-para-Krawtchouk), odd indices on the
    c-strand (unit strand).  ``z_points`` holds the exponential
    representatives.  ``weights_half`` are the persymmetric (alpha = 1/2)
    weights, filled only by the q-para-Racah closed forms, ``h`` the
    normalization products u_1...u_n, and ``k_norm`` the closed-form
    normalization constant of the weight tables.
    """

    _fields = ("points", "z_points", "weights", "weights_half", "h", "k_norm",
               "positive_measure")

    def __init__(self, points: tuple, z_points: tuple, weights=None, weights_half=None,
                 h=None, k_norm=None, positive_measure=None):
        self.points = points
        self.z_points = z_points
        self.weights = weights
        self.weights_half = weights_half
        self.h = h
        self.k_norm = k_norm
        self.positive_measure = positive_measure

    def weighted(self, w, h, w_half=None, k_norm=None) -> LatticeWeights:
        """These points with weights attached and the measure's sign flagged."""
        positive = all(v > 0 for v in w) and all(v > 0 for v in h[1:])
        return self.replace(weights=w, weights_half=w_half, h=h, k_norm=k_norm,
                            positive_measure=positive)

    def strand_sums(self) -> tuple:
        """(sum of the weights at even indices, at odd indices): 1 - alpha and
        alpha for an orthogonality measure."""
        return sum(self.weights[0::2]), sum(self.weights[1::2])


class TridiagonalSystem(Record):
    """Recurrence table of one family: diagonal b_0..b_N, sub-diagonal u_1..u_N.

    Built by :func:`tridiagonal` for either family kind; it evaluates P_0 up
    to P_{N+1}, the characteristic polynomial of the Jacobi matrix, whose
    zeros are the orthogonality lattice.  ``u[k]`` stores u_{k+1}, so
    persymmetry reads as both tuples being palindromic.  ``positive`` flags
    the Favard condition u_n > 0.
    """

    _fields = ("family", "b", "u", "positive")

    def __init__(self, family, b: tuple, u: tuple, positive: bool):
        self.family = family
        self.b = b
        self.u = u
        self.positive = positive

    def values(self, x, n=None) -> list:
        """[P_0(x), ..., P_n(x)] for n <= N+1 (default N+1)."""
        return monic_values(self.b[:n], (0.0,) + self.u, x)

    @property
    def h(self) -> tuple:
        """Normalization products h_n = u_1 u_2 ... u_n for n = 0..N (h_0 = 1)."""
        h = [1.0]
        for v in self.u:
            h.append(h[-1] * v)
        return tuple(h)

    def at_alpha(self, alpha) -> TridiagonalSystem:
        """The same family's table at deformation ``alpha``.

        Only b_n and u_n at n = j, j+1 carry alpha, so only they are
        recomputed, each exactly as :func:`tridiagonal` would at the working
        precision in force; every other entry is this table's own.  Call it
        at the precision that built this table.
        """
        fam = self.family
        # Equal alphas give the same coefficients bit for bit when they have
        # the same type, and at 1/2, where 1 - alpha and alpha (1 - alpha)
        # are exact in binary64 as well.
        if alpha == fam.alpha and (alpha == 0.5 or type(alpha) is type(fam.alpha)):
            return self
        fam = fam.replace(alpha=alpha)
        kind = family_module(fam)
        b, u = list(self.b), list(self.u)
        for n in (fam.j, fam.j + 1):
            b[n] = kind.b_coefficient(fam, n)
            if n:  # there is no u_0 (N = 1)
                u[n - 1] = kind.u_coefficient(fam, n)
        return TridiagonalSystem(family=fam, b=tuple(b), u=tuple(u),
                                 positive=all(v > 0 for v in u))


def family_module(fam):
    """The module defining the family's class, with its coefficients and weights."""
    return sys.modules[type(fam).__module__]


def tridiagonal(fam) -> TridiagonalSystem:
    """The family's table, one coefficient call per entry.

    The coefficients are the ``b_coefficient`` and ``u_coefficient`` of
    :func:`family_module`, looked up there at call time.
    """
    kind = family_module(fam)
    b = tuple(kind.b_coefficient(fam, n) for n in range(fam.N + 1))
    u = tuple(kind.u_coefficient(fam, n) for n in range(1, fam.N + 1))
    return TridiagonalSystem(family=fam, b=b, u=u, positive=all(v > 0 for v in u))


def _shift_coefficient(numerator, q, z, guard):
    z2 = z * z
    den = (1 - z2) * (1 - q * z2)
    if abs(den) < guard:
        raise ValueError("evaluation point too close to a shift-operator pole")
    return numerator(z) / den


def qdifference_residual(numerator, value, lam, q, zs) -> list:
    """[(LHS - RHS, scale) for z in zs] of the q-difference equation

        lam P(z) = c(z) P(qz) - (c(z) + c(1/z)) P(z) + c(1/z) P(z/q),

    with c(z) = numerator(z) / ((1 - z^2)(1 - q z^2)), ``value(z)`` the
    polynomial at x = (z + 1/z)/2, and the scale the largest term magnitude.
    """
    guard = 1e-12 * q ** 0  # typed by q once: an mpf point meets no float
    out = []
    for z in zs:
        coef_up = _shift_coefficient(numerator, q, z, guard)
        coef_dn = _shift_coefficient(numerator, q, 1 / z, guard)
        p_up, p_mid, p_dn = value(q * z), value(z), value(z / q)
        lhs = lam * p_mid
        t_up = coef_up * p_up
        t_mid = (coef_up + coef_dn) * p_mid
        t_dn = coef_dn * p_dn
        out.append((lhs - (t_up - t_mid + t_dn),
                    max(abs(lhs), abs(t_up), abs(t_mid), abs(t_dn))))
    return out


def palindrome_residual(*rows) -> float:
    """max |r_k - r_{len-1-k}| over nonempty rows, as a float; NaN if any is
    NaN.  A row's fold starts at its first difference: an mpf meets no float."""
    return max_keep_nan(*(
        float(max_keep_nan(*(abs(x - y) for x, y in zip(row, reversed(row)))))
        for row in rows))


def persymmetry_residual(tri: TridiagonalSystem) -> float:
    """max deviation from b_n = b_{N-n} and u_n = u_{N-n+1}; NaN if any is NaN."""
    return palindrome_residual(tri.b, tri.u)
