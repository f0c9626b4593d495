"""Jacobi-matrix view: symmetrize the recurrence, certify that its spectrum
is the family's lattice, and measure persymmetry.

A bi-lattice family's lattice is the spectrum of its Jacobi matrix J, and
the deformation alpha moves entries of J without moving that spectrum.  So
nothing here computes an eigenvalue: :func:`spectrum` bounds, at each
lattice point x_s, the distance to the nearest eigenvalue by the residual
of a vector from the twisted factorisation of J - x_s (Parlett, *The
Symmetric Eigenvalue Problem*, ch. 4; Dhillon-Parlett, SIAM J. Matrix Anal.
Appl. 25, 2004).  The matrix is taken in double precision.
"""

from __future__ import annotations

import math

from .recurrence import TridiagonalSystem, _smallest_twist, palindrome_residual
from .scalars import max_keep_nan

__all__ = [
    "SymmetricTridiagonal",
    "build_jacobi",
    "spectrum",
    "matrix_norm",
    "persymmetry_residual",
]


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


def _residual_radius(d, e, x) -> float:
    """||(J - x) v|| / ||v|| for the twisted vector v of J at x.

    With e padded by a zero at each end, the forward run s_0 = 1,
    s_{n+1} = ((x - d_n) s_n - e_{n-1} s_{n-1}) / e_n and the backward run
    t_N = 1, t_{N+1} = 0 are glued at the k of the smallest twist

        |gamma_k| = |(d_k - x) + e_{k-1} s_{k-1}/s_k + e_k t_{k+1}/t_k|,

    skipping a k where s_k or t_k is 0 (:func:`recurrence._smallest_twist`).
    v is s_0..s_k followed by (s_k/t_k) t_{k+1}..t_N, and the residual is
    taken over every row.  inf when every k is skipped.
    """
    n = len(d)
    ee = (0.0, *e, 0.0)  # ee[k] = e_{k-1}
    s = [0.0, 1.0]  # s_{-1}, s_0, ...
    for k in range(n - 1):
        s.append(((x - d[k]) * s[-1] - ee[k] * s[-2]) / ee[k + 1])
    t = [0.0, 1.0]  # t_{N+1}, t_N, ...
    for k in range(n - 1, 0, -1):
        t.append(((x - d[k]) * t[-1] - ee[k + 1] * t[-2]) / ee[k])
    t.reverse()  # t_0 .. t_{N+1}
    glue, _ = _smallest_twist(
        (k, abs(d[k] - x + ee[k] * s[k] / s[k + 1] + ee[k + 1] * t[k + 1] / t[k]))
        for k in range(n) if s[k + 1] != 0 and t[k] != 0)
    if glue is None:
        return math.inf
    ratio = s[glue + 1] / t[glue]
    v = [0.0, *s[1:glue + 2], *(ratio * tk for tk in t[glue + 1:n]), 0.0]
    rows = (ee[k] * v[k] + (d[k] - x) * v[k + 1] + ee[k + 1] * v[k + 2] for k in range(n))
    return math.hypot(*rows) / math.hypot(*v)


def spectrum(m: SymmetricTridiagonal, points) -> list:
    """Certified radii r_s, one per lattice point x_s in ``points`` order.

    Some eigenvalue of ``m`` lies within r_s of x_s, up to the rounding of
    the residual (:func:`_residual_radius`).  When the N+1 intervals
    [x_s - r_s, x_s + r_s] are pairwise disjoint each holds exactly one
    eigenvalue, and the radii are returned; when two of them overlap, every
    radius is inf.  A NaN radius is returned as it is.
    """
    xs = [float(p) for p in points]
    radii = [_residual_radius(m.diagonal, m.offdiag, x) for x in xs]
    spans = sorted((x - r, x + r) for x, r in zip(xs, radii))
    if any(lo <= prev_hi for (_, prev_hi), (lo, _) in zip(spans, spans[1:])):
        return [math.inf] * len(radii)
    return radii


def _max_abs(values) -> float:
    """max |v| (0.0 for none); NaN when any v is NaN."""
    return max_keep_nan(0.0, *(abs(v) for v in values))


def matrix_norm(m: SymmetricTridiagonal) -> float:
    """Cheap row-sum bound max|d| + 2 max|e|, used to scale spectral tolerances."""
    return _max_abs(m.diagonal) + 2.0 * _max_abs(m.offdiag)


def persymmetry_residual(m: SymmetricTridiagonal) -> float:
    """Max entry deviation of J M J - M with J the exchange matrix."""
    return palindrome_residual(m.diagonal, m.offdiag)
