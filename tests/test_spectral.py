import math

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
    assert len(m.diagonal) == 2
    assert len(m.offdiag) == 1
    assert m.offdiag[0] == pytest.approx(math.sqrt(tri.u[0]))


def test_build_rejects_nonpositive_u():
    tri = tridiagonal(ParaRacahFamily(a=0.9, c=0.2, alpha=0.5, q=0.5, N=4))
    assert not tri.positive
    with pytest.raises(ValueError):
        build_jacobi(tri)


def test_spectrum_of_diagonal_matrix():
    m = SymmetricTridiagonal(diagonal=(3.0, -1.0, 2.0), offdiag=(0.0, 0.0))
    assert spectrum(m) == pytest.approx([-1.0, 2.0, 3.0])


def test_spectrum_two_by_two_analytic():
    m = SymmetricTridiagonal(diagonal=(0.0, 0.0), offdiag=(1.0,))
    assert spectrum(m) == pytest.approx([-1.0, 1.0])


@pytest.mark.parametrize("n", [2, 3, 7, 16, 30, 40])
def test_spectrum_free_jacobi_analytic(n):
    # Zero diagonal, unit off-diagonal: eigenvalues 2 cos(k pi / (n + 1)).
    m = SymmetricTridiagonal(diagonal=(0.0,) * n, offdiag=(1.0,) * (n - 1))
    exact = sorted(2 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1))
    eig = spectrum(m)
    assert len(eig) == n
    assert max(abs(x - y) for x, y in zip(eig, exact)) <= 4 * math.ulp(matrix_norm(m))


def test_spectrum_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        spectrum(SymmetricTridiagonal(diagonal=(0.0, math.nan), offdiag=(1.0,)))


def test_persymmetric_matrix_at_half():
    fam = FAM.replace(alpha=0.5)
    m = build_jacobi(tridiagonal(fam))
    assert persymmetry_residual(m) <= 1e-12


def test_persymmetry_broken_away_from_half():
    m = build_jacobi(tridiagonal(FAM))
    assert persymmetry_residual(m) >= 1e-6


def test_spectrum_equals_bilattice():
    for N in (4, 5, 7, 9, 16, 30):
        tri = tridiagonal(FAM.replace(N=N))
        m = build_jacobi(tri)
        assert spectrum_vs_lattice(spectrum(m), lattice(tri.family).points) <= (
            1e-9 * matrix_norm(m))


def test_isospectrality_reference_point_is_exact():
    half = tridiagonal(FAM.replace(alpha=0.5))
    assert isospectrality_check(spectrum(build_jacobi(half)), [half]) == 0.0


def test_isospectrality_across_deformations():
    m = build_jacobi(tridiagonal(FAM))
    half = tridiagonal(FAM.replace(alpha=0.5))
    dev = isospectrality_check(
        spectrum(build_jacobi(half)),
        [tridiagonal(FAM.replace(alpha=al)) for al in (0.1, 0.3, 0.7, 0.9)])
    assert dev <= 1e-9 * matrix_norm(m)


def test_spectrum_matches_lattice_points_sorted():
    fam = FAM.replace(N=6)
    m = build_jacobi(tridiagonal(fam))
    eig = spectrum(m)
    pts = sorted(float(x) for x in lattice(fam).points)
    assert max(abs(x - y) for x, y in zip(eig, pts)) <= 1e-9 * matrix_norm(m)
