"""Jacobi-matrix view of a recurrence table: certify that its spectrum is
the family's lattice, and measure persymmetry.

A bi-lattice family's lattice is the spectrum of its Jacobi matrix J, and
the deformation alpha moves entries of J without moving that spectrum.  So
nothing here computes an eigenvalue: :func:`spectrum` bounds, at each
lattice point x_s, the distance to the nearest eigenvalue by the residual
of the vector that :func:`~qortho.recurrence.lattice_vectors`, the
package's one twisted factorisation, gives for J - x_s (Parlett, *The
Symmetric Eigenvalue Problem*, ch. 4; Dhillon-Parlett, SIAM J. Matrix Anal.
Appl. 25, 2004).  Each function reads the table itself and takes J in
double precision: diagonal b_n, off-diagonal sqrt(u_n).
"""

from __future__ import annotations

import math

from .recurrence import (DegenerateFamilyError, TridiagonalSystem, lattice_vectors,
                         palindrome_residual)
from .scalars import max_keep_nan, sqrt

__all__ = [
    "spectrum",
    "matrix_norm",
    "persymmetry_residual",
]


def _jacobi(tri: TridiagonalSystem) -> tuple:
    """(diagonal, off-diagonal) of the table's symmetrized Jacobi matrix in
    binary64: float(b_n) and sqrt(float(u_n)), or the root in the table's
    own scalars of a positive u_n that is 0 in binary64."""
    if any(v <= 0 for v in tri.u):
        raise ValueError("all u_n must be positive to symmetrize the recurrence")
    return (tuple(float(v) for v in tri.b),
            tuple(math.sqrt(float(v)) or float(sqrt(v)) for v in tri.u))


def spectrum(tri: TridiagonalSystem, points) -> list:
    """Certified radii r_s, one per lattice point x_s in ``points`` order.

    r_s = ||(J - x_s) v|| / ||v||, over every row of the table's J, for the
    vector v of :func:`~qortho.recurrence.lattice_vectors` on the diagonal
    and the squared off-diagonal of J, so some eigenvalue of J lies within
    r_s of x_s, up to the rounding of the residual.  When the N+1 intervals
    [x_s - r_s, x_s + r_s] are pairwise disjoint each holds exactly one
    eigenvalue, and the radii are returned; when two of them overlap, or a
    point has no glue index (it is no eigenvalue), every radius is inf.  A
    NaN radius is returned as it is.
    """
    d, e = _jacobi(tri)
    xs = [float(p) for p in points]
    try:
        vectors, _ = lattice_vectors(d, [v * v for v in e], xs)
    except DegenerateFamilyError:
        return [math.inf] * len(xs)
    ee = (0.0, *e, 0.0)  # ee[k] = e_{k-1}
    radii = []
    for x, y in zip(xs, vectors):
        v = (0.0, *y, 0.0)
        rows = (ee[k] * v[k] + (dk - x) * v[k + 1] + ee[k + 1] * v[k + 2]
                for k, dk in enumerate(d))
        radii.append(math.hypot(*rows) / math.hypot(*v))
    spans = sorted((x - r, x + r) for x, r in zip(xs, radii))
    if any(lo <= prev_hi for (_, prev_hi), (lo, _) in zip(spans, spans[1:])):
        return [math.inf] * len(radii)
    return radii


def _max_abs(values) -> float:
    """max |v| (0.0 for none); NaN when any v is NaN."""
    return max_keep_nan(0.0, *(abs(v) for v in values))


def matrix_norm(tri: TridiagonalSystem) -> float:
    """Cheap row-sum bound max|d| + 2 max|e| of the table's J, used to scale
    spectral tolerances."""
    d, e = _jacobi(tri)
    return _max_abs(d) + 2.0 * _max_abs(e)


def persymmetry_residual(tri: TridiagonalSystem) -> float:
    """Max entry deviation of X J X - J of the table's J, with X the
    exchange matrix."""
    return palindrome_residual(*_jacobi(tri))
