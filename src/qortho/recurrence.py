"""The three-term recurrence engine shared by every family in the package.

Every family here is a sequence of monic polynomials

    P_{n+1}(x) = (x - b_n) P_n(x) - u_n P_{n-1}(x),   P_{-1} = 0,  P_0 = 1,

and :func:`monic_values` is the one loop that evaluates it.  The truncated
families (q-para-Racah and q-para-Krawtchouk) fill a :class:`TridiagonalSystem`
once with :func:`tridiagonal` and read every degree, the normalization
products and the persymmetry residual from it.  The Askey-Wilson and q-Racah
recurrences feed their own coefficient lists to the same loop.

The deformation alpha enters b_n and u_n only at the splice n = j, j+1, so
:meth:`TridiagonalSystem.at_alpha` gives the same family's table at another
alpha by recomputing those entries and sharing every other one.

A table belongs to one verify run or one command, which fills it once and
hands it to every function that reads the family's coefficients; it is never
cached beyond that: a table of mpmath values built at one working precision
must not be read at another, nor deformed by ``at_alpha`` at another.
"""

from __future__ import annotations

import sys
from operator import attrgetter

from .scalars import max_keep_nan

__all__ = [
    "Record",
    "BiLatticeFamily",
    "TridiagonalSystem",
    "monic_values",
    "family_module",
    "tridiagonal",
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


class BiLatticeFamily(Record):
    """Checks and derived indices shared by the truncated families.

    Subclasses are immutable records with fields ``alpha``, ``q`` and ``N``
    beside their lattice parameters; their ``__init__`` calls
    :meth:`_check_shared` before its own checks on those parameters and
    stores each field in the instance ``__dict__``.  A family hashes by
    value.  N = 2j+1 when ``odd``, N = 2j otherwise.  alpha enters the
    recurrence coefficients b_n and u_n only at n = j, j+1, which is what
    :meth:`TridiagonalSystem.at_alpha` relies on; it must run at the working
    precision that built the table it deforms.
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

    @property
    def odd(self) -> bool:
        return self.N % 2 == 1

    @property
    def j(self) -> int:
        return self.N // 2


def monic_values(b, u, x) -> list:
    """[P_0(x), ..., P_n(x)] with n = len(b).

    ``u[m]`` multiplies P_{m-1}; callers pass u_0 as the float 0.0.
    """
    prev, cur = 0.0, 1.0
    out = [cur]
    for bm, um in zip(b, u):
        cur, prev = (x - bm) * cur - um * prev, cur
        out.append(cur)
    return out


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


def persymmetry_residual(tri: TridiagonalSystem) -> float:
    """max deviation from b_n = b_{N-n} and u_n = u_{N-n+1}; NaN if any is NaN."""
    rb = max_keep_nan(0.0, *(abs(x - y) for x, y in zip(tri.b, reversed(tri.b))))
    ru = max_keep_nan(0.0, *(abs(x - y) for x, y in zip(tri.u, reversed(tri.u))))
    return max_keep_nan(float(rb), float(ru))
