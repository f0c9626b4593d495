import dataclasses
import math

import numpy as np
import pytest

from qortho.para_racah import ParaRacahFamily, lattice
from qortho.recurrence import tridiagonal
from qortho.spectral import (
    SymmetricTridiagonal,
    build_jacobi,
    isospectrality_check,
    matrix_norm,
    persymmetry_residual,
    spectrum,
    spectrum_vs_lattice,
)

FAM = ParaRacahFamily(a=0.9, c=0.7, alpha=0.3, q=0.5, N=7)


def test_build_two_by_two():
    tri = tridiagonal(ParaRacahFamily(a=0.9, c=0.7, alpha=0.5, q=0.5, N=1))
    m = build_jacobi(tri)
    assert m.diagonal.shape == (2,)
    assert m.offdiag.shape == (1,)
    assert m.offdiag[0] == pytest.approx(math.sqrt(tri.u[0]))


def test_build_rejects_nonpositive_u():
    tri = tridiagonal(ParaRacahFamily(a=0.9, c=0.2, alpha=0.5, q=0.5, N=4))
    assert not tri.positive
    with pytest.raises(ValueError):
        build_jacobi(tri)


def test_spectrum_of_diagonal_matrix():
    m = SymmetricTridiagonal(diagonal=np.array([3.0, -1.0, 2.0]),
                             offdiag=np.zeros(2))
    assert spectrum(m) == pytest.approx([-1.0, 2.0, 3.0])


def test_spectrum_two_by_two_analytic():
    m = SymmetricTridiagonal(diagonal=np.zeros(2), offdiag=np.array([1.0]))
    assert spectrum(m) == pytest.approx([-1.0, 1.0])


def test_persymmetric_matrix_at_half():
    fam = dataclasses.replace(FAM, alpha=0.5)
    m = build_jacobi(tridiagonal(fam))
    assert persymmetry_residual(m) <= 1e-12


def test_persymmetry_broken_away_from_half():
    m = build_jacobi(tridiagonal(FAM))
    assert persymmetry_residual(m) >= 1e-6


def test_spectrum_equals_bilattice():
    for N in (4, 5, 7, 9):
        fam = dataclasses.replace(FAM, N=N)
        m = build_jacobi(tridiagonal(fam))
        assert spectrum_vs_lattice(fam) <= 1e-9 * matrix_norm(m)


def test_isospectrality_reference_point_is_exact():
    assert isospectrality_check(FAM, [0.5]) == 0.0


def test_isospectrality_across_deformations():
    m = build_jacobi(tridiagonal(FAM))
    dev = isospectrality_check(FAM, [0.1, 0.3, 0.7, 0.9])
    assert dev <= 1e-9 * matrix_norm(m)


def test_spectrum_matches_lattice_points_sorted():
    fam = dataclasses.replace(FAM, N=6)
    m = build_jacobi(tridiagonal(fam))
    eig = spectrum(m)
    pts = np.sort([float(x) for x in lattice(fam).points])
    assert np.max(np.abs(eig - pts)) <= 1e-9 * matrix_norm(m)
