"""Jacobi-matrix view: symmetrize the recurrence, compute spectra, and verify
that the deformation parameter moves matrix entries without moving eigenvalues.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .para_racah import ParaRacahFamily, lattice
from .recurrence import TridiagonalSystem, tridiagonal

__all__ = [
    "SymmetricTridiagonal",
    "build_jacobi",
    "spectrum",
    "matrix_norm",
    "persymmetry_residual",
    "isospectrality_check",
    "spectrum_vs_lattice",
]


@dataclass(frozen=True, eq=False)
class SymmetricTridiagonal:
    diagonal: np.ndarray
    offdiag: np.ndarray


def build_jacobi(tri: TridiagonalSystem) -> SymmetricTridiagonal:
    """Symmetrized Jacobi matrix: diagonal b_n, off-diagonal sqrt(u_n)."""
    u = np.array([float(v) for v in tri.u])
    if u.size and np.any(u <= 0):
        raise ValueError("all u_n must be positive to symmetrize the recurrence")
    d = np.array([float(v) for v in tri.b])
    return SymmetricTridiagonal(diagonal=d, offdiag=np.sqrt(u))


def spectrum(m: SymmetricTridiagonal) -> np.ndarray:
    """All eigenvalues, ascending; LAPACK tridiagonal solver, deterministic."""
    if m.offdiag.size == 0:
        return m.diagonal.copy()
    return eigh_tridiagonal(m.diagonal, m.offdiag, eigvals_only=True)


def matrix_norm(m: SymmetricTridiagonal) -> float:
    """Cheap row-sum bound max|d| + 2 max|e|, used to scale spectral tolerances."""
    off = float(np.max(np.abs(m.offdiag))) if m.offdiag.size else 0.0
    return float(np.max(np.abs(m.diagonal))) + 2.0 * off


def persymmetry_residual(m: SymmetricTridiagonal) -> float:
    """Max entry deviation of J M J - M with J the exchange matrix."""
    rd = float(np.max(np.abs(m.diagonal - m.diagonal[::-1])))
    re = float(np.max(np.abs(m.offdiag - m.offdiag[::-1]))) if m.offdiag.size else 0.0
    return max(rd, re)


def isospectrality_check(fam: ParaRacahFamily, alphas) -> float:
    """Max spectral deviation across the alpha grid, against alpha = 1/2.

    Spectra are sorted ascending and compared pairwise; the result is the
    worst absolute eigenvalue gap over all requested deformations.
    """
    ref = spectrum(build_jacobi(tridiagonal(dataclasses.replace(fam, alpha=0.5))))
    worst = 0.0
    for al in alphas:
        s = spectrum(build_jacobi(tridiagonal(dataclasses.replace(fam, alpha=al))))
        worst = max(worst, float(np.max(np.abs(s - ref))))
    return worst


def spectrum_vs_lattice(fam: ParaRacahFamily) -> float:
    """Max gap between the Jacobi spectrum and the sorted bi-lattice."""
    s = spectrum(build_jacobi(tridiagonal(fam)))
    pts = np.sort(np.array([float(x) for x in lattice(fam).points]))
    return float(np.max(np.abs(s - pts)))
