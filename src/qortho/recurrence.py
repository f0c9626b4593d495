"""The three-term recurrence engine and the conventions every family shares.

Every family here is a sequence of monic polynomials

    P_{n+1}(x) = (x - b_n) P_n(x) - u_n P_{n-1}(x),   P_{-1} = 0,  P_0 = 1,

and :func:`monic_values` is the one loop that evaluates it.  P_0 = 1, like
h_0 = 1 in :attr:`TridiagonalSystem.h`, is the table's own one, in b_0's
type: 1.0 in binary64 and a Decimal 1 in a Decimal table, so no caller
meets a float unit it must replace.  The truncated families
(q-para-Racah and q-para-Krawtchouk) fill a :class:`TridiagonalSystem` once
with :func:`tridiagonal`, from one pass of their kind's ``coefficient_rows``,
and read every degree, the normalization products and the persymmetry
residual from it.
The q-para-Racah truncation limits and the q-Racah recurrence map their
parent coefficients (A_n, C_n) to monic ones with :func:`monic_coefficients`.

This module owns the other conventions the families share, each written
once: the bi-lattice order (:func:`interleave` puts one strand at the even
indices and the other at the odd ones, :meth:`LatticeWeights.strand_sums`
reads them back), the closed-form weights from their strand factors
(:func:`weight_table`), the one twisted factorisation, which gives each
lattice point its scaled vector y_n ~ P_n / sqrt|h_n| from pivot ratios
alone (:func:`lattice_vectors`; the spectral radii read it too), and the
two checks that read those vectors (:func:`gram_errors` and the Christoffel
weights :func:`weights_from_christoffel`), the refusal of coincident strands
(:meth:`BiLatticeFamily.require_distinct_strands`), the q-difference
equation of every degree on x = (z + 1/z)/2 at shared points, with its
shift-operator pole guard (:func:`qdifference_residual`), and the palindrome
residual behind both persymmetry checks (:func:`palindrome_residual`).

The deformation alpha enters b_n and u_n only at the splice n = j, j+1, so
:meth:`TridiagonalSystem.at_alpha` gives the same family's table at another
alpha by the same pass restricted to those entries, sharing every other one.

A table belongs to one verify run or one command and is never cached beyond
it: a table of Decimal values built at one working precision must not be
read at another, nor deformed by ``at_alpha`` at another.  A family keeps
the powers of its q and the factor rows of its z-free bases for as long as
it lives, one table per working precision (:meth:`BiLatticeFamily.powers`).
"""
from __future__ import annotations

import sys
from functools import reduce
from operator import add, attrgetter, mul

from .qseries import PowerTable
from .scalars import max_keep_nan, sqrt, typed_float, unit, working_precision

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
    "lattice_vectors",
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
    """The two strands coincide (c = a, Delta = 1) or share a lattice point
    (a / c or Delta is q^k, k != 0, within the strands' lengths), two
    q-para-Racah strand points z and z' have z z' = 1, so x = (z + 1/z)/2
    puts them on one lattice point, or a q-para-Racah family at even N has
    a = c q^j, a c q^(2j) = 1 or c = a q^(j+1): weights are undefined."""


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
    strands coincide (``degenerate``) and how (``_coincident_strands``), and
    names the fields x and y of its strands' points x q^s and y q^t
    (``_strand_heads``; '' stands for y = 1).
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
        """Raise :class:`DegenerateFamilyError` if the strands coincide or
        share a lattice point."""
        if self.degenerate:
            raise DegenerateFamilyError("%s; %s" % (self._coincident_strands, undefined))
        shared = self._shared_point()
        if shared:
            raise DegenerateFamilyError("%s puts one lattice point on both strands; %s"
                                        % (shared, undefined))

    def _shared_point(self) -> str:
        """The words ``x q^s = y q^t`` of the first points x q^s (s <= j) and
        y q^t (t < N - j) of the two strands that agree to
        :data:`_DEGENERATE_TOL`, or ''.  Off coincident strands one of s and
        t is 0 at such points."""
        names = self._strand_heads
        x, y = (getattr(self, name) if name else unit(self.q) for name in names)
        pw = self.powers()
        tol = typed_float(_DEGENERATE_TOL, self.q)
        for s, t in [(0, t) for t in range(1, self.N - self.j)] + [
                (s, 0) for s in range(1, self.j + 1)]:
            xs, yt = x * pw[s], y * pw[t]
            if abs(xs - yt) <= tol * max(xs, yt):
                return " = ".join(("%s q^%d" % (name, k)).lstrip()
                                  for name, k in zip(names, (s, t)))
        return ""

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
    P_0 is the table's own one, in the type of ``b[0]`` (1.0 in binary64, a
    Decimal 1 in a Decimal table), or of ``x`` when ``b`` is empty; so a
    caller may pass the whole of ``b`` and set n by the length of ``u``.
    P_1 = x - b_0 and P_2 = (x - b_1) P_1 - u_1 are written out: the general
    step's products by P_0 = 1 and P_{-1} = 0 are exact.
    """
    out = [unit(b[0] if b else x)]
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


def monic_coefficients(rows, b_degrees, u_degrees, shift, scale) -> tuple:
    """([b_n for n in b_degrees], [u_n for n in u_degrees]) of a parent
    recurrence

        X p_m = A_m p_{m+1} + (shift - A_m - C_m) p_m + C_m p_{m-1}

    in the variable X = scale * x, with (A_m, C_m) = rows[m]: b_n =
    (shift - A_n - C_n) / scale and u_n = A_{n-1} C_n / scale^2, u_0 = 0.0.
    """
    b = [(shift - rows[n][0] - rows[n][1]) / scale for n in b_degrees]
    u = [0.0 if n == 0 else rows[n - 1][0] * rows[n][1] / scale ** 2 for n in u_degrees]
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


def lattice_vectors(b, u, points) -> tuple:
    """(vectors, twist): vectors[s] = [y_0, ..., y_N] at each of ``points``,
    zeros of R_{N+1} of the table b_0..b_N, ``u[k]`` = u_{k+1}, with y_n
    proportional to P_n(x_s) / sqrt|h_n| (an eigenvector of the symmetric
    Jacobi matrix when every u_n > 0); and the largest smallest twist over
    the points, scaled by max |x_s|, which shows a point that is not a zero.
    This is the one evaluation of a table at its lattice: Gram, the
    Christoffel weights and the spectral radii read it.

    At each point the pivots D+_k = (x - b_k) - u_k / D+_{k-1} and
    D-_k = (x - b_k) - u_{k+1} / D-_{k+1} are the ratios P_{k+1}/P_k and
    u_k Q_{k-1}/Q_k, so no P_n or Q_n is formed.  At the first k of the
    smallest twist |gamma_k| = |D+_k + D-_k - (x - b_k)|, y_k = 1, and with
    r_n = sqrt|u_n| (once per call) and sigma_n = sign(u_n),
    y_i = r_{i+1} y_{i+1} / D+_i below k and y_i = sigma_i r_i y_{i-1} / D-_i
    above it: the eigenvector step of MRRR (Dhillon-Parlett, SIAM J. Matrix
    Anal. Appl. 25, 2004).  A zero pivot makes the next one infinite (None),
    a k with an infinite pivot is never the glue, and across a zero pivot
    y_i is read from the row beyond it, where y_{i+1} (or y_{i-1}) is 0.  A
    point where no k glues raises :class:`DegenerateFamilyError`.
    """
    roots = [sqrt(abs(v)) for v in u]
    signed = [-r if v < 0 else r for v, r in zip(u, roots)]
    one = unit(b[0])
    zero = 0 * one
    vectors, twists = [], []
    for x in points:
        shifts = [x - bk for bk in b]
        lower, pivot = [], None  # the pivot above row 0 is infinite
        for t, uk in zip(shifts, (zero, *u)):
            pivot = t if pivot is None else None if pivot == 0 else t - uk / pivot
            lower.append(pivot)
        upper, pivot = [], None  # and so is the one below row N
        for t, uk in zip(reversed(shifts), reversed((*u, zero))):
            pivot = t if pivot is None else None if pivot == 0 else t - uk / pivot
            upper.append(pivot)
        upper.reverse()
        glue = best = None
        for k, (lo, up, t) in enumerate(zip(lower, upper, shifts)):
            if lo is not None and up is not None:
                twist = abs(lo + up - t)
                if best is None or twist < best:
                    glue, best = k, twist
        if glue is None:
            raise DegenerateFamilyError("no index glues the twisted factorisation at "
                                        "a lattice point; configuration is degenerate")
        y = [zero] * len(b)
        y[glue] = one
        for i in range(glue - 1, -1, -1):  # y_i = 0 at an infinite pivot
            pivot = lower[i]
            if pivot is not None:
                y[i] = (-roots[i + 1] * y[i + 2] / signed[i] if pivot == 0
                        else roots[i] * y[i + 1] / pivot)
        for i in range(glue + 1, len(b)):
            pivot = upper[i]
            if pivot is not None:
                y[i] = (-signed[i - 2] * y[i - 2] / roots[i - 1] if pivot == 0
                        else signed[i - 1] * y[i - 1] / pivot)
        vectors.append(y)
        twists.append(best)
    return vectors, max_keep_nan(*twists) / max(abs(x) for x in points)


def _sum(terms):
    """The terms added left to right from 0.  Python 3.12's builtin ``sum``
    compensates float sums (Neumaier) and would print other bits."""
    return reduce(add, terms, 0)


def _h_signs(h) -> list:
    """sign(h_n) for each h_n, in the type of the table's one h_0."""
    one = h[0]
    return [-one if v < 0 else one for v in h]


def gram_errors(vectors, weights, h):
    """(max diagonal error, max off-diagonal entry) of the scaled Gram matrix
    sum_s w_s y_n(x_s) y_m(x_s) / y_0(x_s)^2 against sign(h_n) delta_nm, with
    vectors[s] the y_0..y_N at the lattice point x_s (:func:`lattice_vectors`),
    w_s = weights[s] and h the table's :attr:`TridiagonalSystem.h`; no h_n is
    read but for its sign.  An error is NaN when an entry is; a y_0^2 that
    underflows to 0 raises ZeroDivisionError."""
    # Column n holds y_n at every point; c_s y_n(x_s), c_s = w_s / y_0(x_s)^2,
    # is formed once per (s, n) and then multiplied by y_m(x_s).
    cols = list(zip(*vectors))
    scale = [w / (y[0] * y[0]) for w, y in zip(weights, vectors)]
    weighted = [list(map(mul, scale, col)) for col in cols]
    signs = _h_signs(h)
    # Folded from a zero of the table's type: a Decimal error meets no float.
    worst_diag = worst_off = 0 * signs[0]
    for n in range(len(cols)):
        for m in range(n):
            worst_off = max_keep_nan(worst_off, abs(_sum(map(mul, weighted[n], cols[m]))))
        worst_diag = max_keep_nan(worst_diag,
                                  abs(_sum(map(mul, weighted[n], cols[n])) - signs[n]))
    return float(worst_diag), float(worst_off)


def weights_from_christoffel(tri: TridiagonalSystem, vectors) -> tuple:
    """Independent weight route for either kind: the Christoffel function
    w_s = 1 / sum_n P_n(x_s)^2 / h_n = y_0^2 / sum_n sign(h_n) y_n^2, one
    weight per lattice point x_s, with vectors[s] the y_0..y_N there
    (:func:`lattice_vectors`) and h_n the table's.  At a zero x_s of
    R_{N+1} it equals h_N / (R_N(x_s) R'_{N+1}(x_s)) by Christoffel-Darboux,
    and for u_n > 0 it is the squared first component of the unit
    eigenvector (Golub-Welsch, Math. Comp. 23, 1969), so it agrees with the
    kind's ``weights``."""
    tri.family.require_distinct_strands()
    signs = _h_signs(tri.h)
    return tuple(y[0] * y[0] / _sum(s * v * v for s, v in zip(signs, y)) for y in vectors)


class LatticeWeights(Record):
    """Bi-lattice points with their orthogonality weights, one record shape
    for both kinds; h_n is the table's (:attr:`TridiagonalSystem.h`).

    Points and weights are stored in :func:`interleave` order: even indices
    on the a-strand (Delta-strand for q-para-Krawtchouk), odd indices on the
    c-strand (unit strand).  ``weights_half`` are the persymmetric
    (alpha = 1/2) weights, filled only by the q-para-Racah closed forms.
    """

    _fields = ("points", "weights", "weights_half")

    def __init__(self, points: tuple, weights: tuple, weights_half=None):
        self.points = points
        self.weights = weights
        self.weights_half = weights_half

    def strand_sums(self) -> tuple:
        """(sum of the weights at even indices, at odd indices): 1 - alpha and
        alpha for an orthogonality measure."""
        return _sum(self.weights[0::2]), _sum(self.weights[1::2])


class TridiagonalSystem(Record):
    """Recurrence table of one family: diagonal b_0..b_N, sub-diagonal u_1..u_N.

    Built by :func:`tridiagonal` for either family kind; it evaluates P_0 up
    to P_{N+1}, the characteristic polynomial of the Jacobi matrix, whose
    zeros are the orthogonality lattice.  ``u[k]`` stores u_{k+1}, so
    persymmetry reads as both tuples being palindromic.  It is the one
    record of the recurrence: h_n and positivity are read from it.
    """

    _fields = ("family", "b", "u")

    def __init__(self, family, b: tuple, u: tuple):
        self.family = family
        self.b = b
        self.u = u

    @property
    def positive(self) -> bool:
        """The Favard condition: every u_n > 0."""
        return all(v > 0 for v in self.u)

    def values(self, x, n=None) -> list:
        """[P_0(x), ..., P_n(x)] for n <= N+1 (default N+1); P_0 is the
        table's one at every n."""
        return monic_values(self.b, ((0.0,) + self.u)[:n], x)

    @property
    def h(self) -> tuple:
        """Normalization products h_n = u_1 u_2 ... u_n for n = 0..N, from
        the table's one h_0 in b_0's type, as P_0."""
        h = [unit(self.b[0])]
        for v in self.u:
            h.append(h[-1] * v)
        return tuple(h)

    def at_alpha(self, alpha) -> TridiagonalSystem:
        """The same family's table at deformation ``alpha``.

        Only b_n and u_n at n = j, j+1 carry alpha, so only they are
        recomputed, by the kind's coefficient pass restricted to them, each
        exactly as :func:`tridiagonal` would at the working precision in
        force; every other entry is this table's own.  Call it at the
        precision that built this table.
        """
        fam = self.family
        # Equal alphas of one type give the same coefficients bit for bit.
        if alpha == fam.alpha and type(alpha) is type(fam.alpha):
            return self
        fam = fam.replace(alpha=alpha)
        j = fam.j
        lo = max(j, 1)  # there is no u_0 (N = 1)
        b, u = list(self.b), list(self.u)
        b[j:j + 2], u[lo - 1:j + 1] = family_module(fam).coefficient_rows(
            fam, (j, j + 1), range(lo, j + 2))
        return TridiagonalSystem(family=fam, b=tuple(b), u=tuple(u))


def family_module(fam):
    """The module defining the family's class, with its coefficients and weights."""
    return sys.modules[type(fam).__module__]


def tridiagonal(fam) -> TridiagonalSystem:
    """The family's table from one coefficient pass: the
    ``coefficient_rows`` of :func:`family_module`, looked up there at call
    time, over b_0..b_N and u_1..u_N.
    """
    b, u = family_module(fam).coefficient_rows(fam, range(fam.N + 1), range(1, fam.N + 1))
    return TridiagonalSystem(family=fam, b=tuple(b), u=tuple(u))


def _shift_coefficient(numerator, q, z, guard):
    z2 = z * z
    den = (1 - z2) * (1 - q * z2)
    if abs(den) < guard:
        raise ValueError("evaluation point too close to a shift-operator pole")
    return numerator(z) / den


def qdifference_residual(numerator, values, lams, q, zs) -> list:
    """One row per entry of ``lams``, each [(LHS - RHS, scale) for z in zs],
    of the q-difference equation

        lam_n P_n(z) = c(z) P_n(qz) - (c(z) + c(1/z)) P_n(z) + c(1/z) P_n(z/q),

    with c(z) = numerator(z) / ((1 - z^2)(1 - q z^2)), ``values(z)`` the
    polynomials at x = (z + 1/z)/2, one per entry of ``lams``, and the scale
    the largest term magnitude.  Each point's shift coefficients and its
    three value lists are computed once and serve every degree.
    """
    guard = typed_float(1e-12, q)
    rows = [[] for _ in lams]
    for z in zs:
        coef_up = _shift_coefficient(numerator, q, z, guard)
        coef_dn = _shift_coefficient(numerator, q, 1 / z, guard)
        coef_mid = coef_up + coef_dn
        for row, lam, p_up, p_mid, p_dn in zip(
                rows, lams, values(q * z), values(z), values(z / q)):
            lhs = lam * p_mid
            t_up = coef_up * p_up
            t_mid = coef_mid * p_mid
            t_dn = coef_dn * p_dn
            row.append((lhs - (t_up - t_mid + t_dn),
                        max(abs(lhs), abs(t_up), abs(t_mid), abs(t_dn))))
    return rows


def palindrome_residual(*rows) -> float:
    """max |r_k - r_{len-1-k}| over nonempty rows, as a float; NaN if any is
    NaN.  A row's fold starts at its first difference: a Decimal meets no float."""
    return max_keep_nan(*(
        float(max_keep_nan(*(abs(x - y) for x, y in zip(row, reversed(row)))))
        for row in rows))


def persymmetry_residual(tri: TridiagonalSystem) -> float:
    """max deviation from b_n = b_{N-n} and u_n = u_{N-n+1}; NaN if any is NaN."""
    return palindrome_residual(tri.b, tri.u)
