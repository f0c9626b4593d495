"""Jacobi-matrix view: symmetrize the recurrence, compute spectra, and verify
that the deformation parameter moves matrix entries without moving eigenvalues.

Spectra are taken in double precision by the eigenvalue-only implicit QL
algorithm with Wilkinson shifts (Bowdler, Martin, Reinsch and Wilkinson,
Numer. Math. 11, 1968; EISPACK ``tql1``).
"""

from __future__ import annotations

import math

from .recurrence import TridiagonalSystem, palindrome_residual
from .scalars import max_keep_nan

__all__ = [
    "SymmetricTridiagonal",
    "build_jacobi",
    "spectrum",
    "matrix_norm",
    "persymmetry_residual",
    "isospectrality_check",
    "spectrum_vs_lattice",
]

# QL sweeps allowed per eigenvalue; two or three are typical.
_MAX_SWEEPS = 30


class SymmetricTridiagonal:
    def __init__(self, diagonal: tuple, offdiag: tuple):
        self.diagonal = diagonal
        self.offdiag = offdiag


def build_jacobi(tri: TridiagonalSystem) -> SymmetricTridiagonal:
    """Symmetrized Jacobi matrix: diagonal b_n, off-diagonal sqrt(u_n)."""
    u = [float(v) for v in tri.u]
    if any(v <= 0 for v in u):
        raise ValueError("all u_n must be positive to symmetrize the recurrence")
    return SymmetricTridiagonal(diagonal=tuple(float(v) for v in tri.b),
                                offdiag=tuple(math.sqrt(v) for v in u))


def spectrum(m: SymmetricTridiagonal) -> list:
    """All eigenvalues, ascending, by implicit QL; deterministic."""
    d = list(m.diagonal)
    e = list(m.offdiag) + [0.0]
    if not all(math.isfinite(v) for v in d + e):
        raise ValueError("the Jacobi matrix must have finite entries")
    n = len(d)
    for l in range(n):
        sweeps = 0
        while True:
            # The first negligible off-diagonal entry at or below row l
            # splits off the block d[l..end].
            end = l
            while end < n - 1:
                dd = abs(d[end]) + abs(d[end + 1])
                if abs(e[end]) + dd == dd:
                    break
                end += 1
            if end == l:
                break
            if sweeps == _MAX_SWEEPS:
                raise ArithmeticError("QL iteration did not converge")
            sweeps += 1
            # Wilkinson shift from the leading 2x2 block, then one implicit
            # QL sweep of plane rotations from the bottom of the block up.
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[end] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(end - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # Exact underflow: the block splits at i + 1.
                    d[i + 1] -= p
                    e[end] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[end] = 0.0
    return sorted(d)


def _max_abs(values) -> float:
    """max |v| (0.0 for none); NaN when any v is NaN."""
    return max_keep_nan(0.0, *(abs(v) for v in values))


def matrix_norm(m: SymmetricTridiagonal) -> float:
    """Cheap row-sum bound max|d| + 2 max|e|, used to scale spectral tolerances."""
    return _max_abs(m.diagonal) + 2.0 * _max_abs(m.offdiag)


def persymmetry_residual(m: SymmetricTridiagonal) -> float:
    """Max entry deviation of J M J - M with J the exchange matrix."""
    return palindrome_residual(m.diagonal, m.offdiag)


def isospectrality_check(ref: list, tables) -> float:
    """Max spectral deviation of the tables against the reference spectrum.

    The reference is the :func:`spectrum` of a family's alpha = 1/2 table
    and the tables are the same family at other deformations.  Spectra are
    sorted ascending and compared pairwise; the result is the worst absolute
    eigenvalue gap over all tables, NaN if any gap is NaN.
    """
    return _max_abs(x - y for t in tables
                    for x, y in zip(spectrum(build_jacobi(t)), ref))


def spectrum_vs_lattice(eig: list, points) -> float:
    """Max gap between an ascending Jacobi spectrum of a family and its
    bi-lattice ``points``, sorted."""
    return _max_abs(x - y for x, y in zip(eig, sorted(float(p) for p in points)))
