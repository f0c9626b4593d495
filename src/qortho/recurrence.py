"""The three-term recurrence engine shared by every family in the package.

Every family here is a sequence of monic polynomials

    P_{n+1}(x) = (x - b_n) P_n(x) - u_n P_{n-1}(x),   P_{-1} = 0,  P_0 = 1,

and :func:`monic_values` is the one loop that evaluates it.  The truncated
families (q-para-Racah and q-para-Krawtchouk) fill a :class:`TridiagonalSystem`
once with :func:`tridiagonal` and read every degree, the normalization
products and the persymmetry residual from it.  The Askey-Wilson and q-Racah
recurrences feed their own coefficient lists to the same loop.

A table belongs to the call or suite that builds it and is never cached: a
table of mpmath values built at one working precision must not be read at
another.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

__all__ = [
    "TridiagonalSystem",
    "monic_values",
    "family_module",
    "tridiagonal",
    "normalization_products",
    "persymmetry_residual",
]


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


@dataclass
class TridiagonalSystem:
    """Recurrence table of one family: diagonal b_0..b_N, sub-diagonal u_1..u_N.

    Built by :func:`tridiagonal` for either family kind; it evaluates P_0 up
    to P_{N+1}, the characteristic polynomial of the Jacobi matrix, whose
    zeros are the orthogonality lattice.  ``u[k]`` stores u_{k+1}, so
    persymmetry reads as both tuples being palindromic.  ``positive`` flags
    the Favard condition u_n > 0.
    """

    family: object
    b: tuple
    u: tuple
    positive: bool

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


def normalization_products(fam) -> tuple:
    """h_n = u_1 u_2 ... u_n for n = 0..N (h_0 = 1)."""
    return tridiagonal(fam).h


def persymmetry_residual(tri: TridiagonalSystem) -> float:
    """max deviation from b_n = b_{N-n} and u_n = u_{N-n+1}."""
    rb = max(abs(x - y) for x, y in zip(tri.b, reversed(tri.b)))
    ru = max(abs(x - y) for x, y in zip(tri.u, reversed(tri.u)))
    return max(float(rb), float(ru))
