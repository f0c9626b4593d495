import math

import pytest

from oracles.spectral import spectrum as ql_spectrum
from qortho import para_krawtchouk
from qortho.para_racah import ParaRacahFamily, lattice
from qortho.recurrence import family_module, tridiagonal
from qortho.spectral import (
    SymmetricTridiagonal,
    build_jacobi,
    matrix_norm,
    persymmetry_residual,
    spectrum,
)

FAM = ParaRacahFamily(a=0.9, c=0.7, alpha=0.3, q=0.5, N=7)
EPS = 2.0 ** -52


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


# The QL oracle against matrices with known spectra.


def test_spectrum_of_diagonal_matrix():
    m = SymmetricTridiagonal(diagonal=(3.0, -1.0, 2.0), offdiag=(0.0, 0.0))
    assert ql_spectrum(m) == pytest.approx([-1.0, 2.0, 3.0])


def test_spectrum_two_by_two_analytic():
    m = SymmetricTridiagonal(diagonal=(0.0, 0.0), offdiag=(1.0,))
    assert ql_spectrum(m) == pytest.approx([-1.0, 1.0])


def _free_jacobi(n):
    # Zero diagonal, unit off-diagonal: eigenvalues 2 cos(k pi / (n + 1)).
    m = SymmetricTridiagonal(diagonal=(0.0,) * n, offdiag=(1.0,) * (n - 1))
    return m, sorted(2 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1))


@pytest.mark.parametrize("n", [2, 3, 7, 16, 30, 40])
def test_spectrum_free_jacobi_analytic(n):
    m, exact = _free_jacobi(n)
    eig = ql_spectrum(m)
    assert len(eig) == n
    assert all(abs(x - y) <= 4 * math.ulp(matrix_norm(m)) for x, y in zip(eig, exact))


def test_spectrum_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        ql_spectrum(SymmetricTridiagonal(diagonal=(0.0, math.nan), offdiag=(1.0,)))


# The residual certificate.


@pytest.mark.parametrize("n", [2, 3, 7, 16, 30, 40])
def test_certificate_at_the_free_jacobi_spectrum(n):
    m, exact = _free_jacobi(n)
    radii = spectrum(m, exact)
    assert len(radii) == n
    assert all(r <= 8 * EPS * matrix_norm(m) for r in radii)


def test_certificate_keeps_the_order_of_its_points():
    m, exact = _free_jacobi(7)
    points = exact[3:] + exact[:3]
    assert spectrum(m, points) == spectrum(m, exact)[3:] + spectrum(m, exact)[:3]


def test_certificate_fails_points_that_are_not_eigenvalues():
    m, exact = _free_jacobi(7)
    shifted = [x + 1e-3 for x in exact]
    assert all(r >= 1e-4 for r in spectrum(m, shifted))


def test_certificate_is_inf_when_two_intervals_overlap():
    # Two points inside one eigenvalue's neighbourhood: each radius covers
    # the other point, so no interval can claim its own eigenvalue.
    m, exact = _free_jacobi(5)
    points = exact[:-1] + [exact[0] + 1e-3]
    assert spectrum(m, points) == [math.inf] * 5


def test_certificate_keeps_a_nan_point():
    m, exact = _free_jacobi(5)
    assert math.isnan(spectrum(m, [math.nan, *exact[1:]])[0])


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
        tol = 1e-9 * matrix_norm(m)
        assert all(r <= tol for r in spectrum(m, lattice(tri.family).points)), N


def test_isospectrality_across_deformations():
    points = lattice(FAM).points
    half = spectrum(build_jacobi(tridiagonal(FAM.replace(alpha=0.5))), points)
    norm = matrix_norm(build_jacobi(tridiagonal(FAM)))
    for al in (0.1, 0.3, 0.7, 0.9):
        radii = spectrum(build_jacobi(tridiagonal(FAM.replace(alpha=al))), points)
        assert all(r + h <= 1e-9 * norm for r, h in zip(radii, half)), al


def _families(kind, q):
    # Positive at every N and alpha for q up to 0.8.
    for N in range(1, 31):
        for alpha in (0.25, 0.5, 0.75):
            if kind == "qpr":
                yield ParaRacahFamily(a=0.9, c=0.8, alpha=alpha, q=q, N=N)
            else:
                yield para_krawtchouk.ParaKrawtchoukFamily(Delta=1.1, alpha=alpha, q=q, N=N)


@pytest.mark.parametrize("q", [0.2, 0.3, 0.5, 0.8])
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
def test_every_oracle_eigenvalue_lies_within_its_radius(kind, q):
    # The intervals are disjoint, so the k-th eigenvalue belongs to the k-th
    # point in ascending order; 8 eps ||J|| allows for the QL's own rounding.
    for fam in _families(kind, q):
        m = build_jacobi(tridiagonal(fam))
        points = [float(x) for x in family_module(fam).lattice(fam).points]
        slack = 8 * EPS * matrix_norm(m)
        paired = zip(ql_spectrum(m), sorted(zip(points, spectrum(m, points))))
        for eig, (x, r) in paired:
            assert abs(eig - x) <= r + slack, (fam, x, eig, r)
