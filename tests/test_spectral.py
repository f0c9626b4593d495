import math
from decimal import Decimal
from types import SimpleNamespace

import pytest

from oracles.spectral import spectrum as ql_spectrum
from qortho import para_krawtchouk
from qortho.para_racah import ParaRacahFamily, lattice
from qortho.recurrence import (TridiagonalSystem, family_module, gram_errors, lattice_vectors,
                               tridiagonal, weights_from_christoffel)
from qortho.scalars import extended_precision
from qortho.spectral import matrix_norm, persymmetry_residual, spectrum

FAM = ParaRacahFamily(a=0.9, c=0.7, alpha=0.3, q=0.5, N=7)
EPS = 2.0 ** -52


def _matrix(tri):
    """(diagonal, off-diagonal) of the table's Jacobi matrix in binary64."""
    return [float(v) for v in tri.b], [math.sqrt(float(v)) for v in tri.u]


def test_two_by_two_norm_reads_the_square_root_of_u():
    tri = tridiagonal(ParaRacahFamily(a=0.9, c=0.7, alpha=0.5, q=0.5, N=1))
    assert (len(tri.b), len(tri.u)) == (2, 1)
    assert matrix_norm(tri) == pytest.approx(
        max(abs(v) for v in tri.b) + 2 * math.sqrt(tri.u[0]))


# Each reading of the table as a binary64 Jacobi matrix refuses it alike.
READERS = [lambda tri: spectrum(tri, [0.0] * len(tri.b)), matrix_norm, persymmetry_residual]
READER_IDS = ["spectrum", "matrix_norm", "persymmetry_residual"]


@pytest.mark.parametrize("read", READERS, ids=READER_IDS)
def test_nonpositive_u_is_refused(read):
    tri = tridiagonal(ParaRacahFamily(a=0.9, c=0.2, alpha=0.5, q=0.5, N=4))
    assert not tri.positive
    with pytest.raises(ValueError, match="positive to symmetrize"):
        read(tri)


# J = [[b_0, r], [r, b_1]], r = sqrt(u_1): each lattice point is a b_n, and
# its vector's residual is r, far inside the gap |b_0 - b_1|.
@pytest.mark.parametrize("read,expected", [
    (lambda tri: spectrum(tri, lattice(tri.family)), lambda b, r: [r, r]),
    (matrix_norm, lambda b, r: max(b) + 2 * r),
    (persymmetry_residual, lambda b, r: abs(b[0] - b[1])),
], ids=READER_IDS)
def test_a_positive_u_below_binary64_takes_its_root_from_the_table(read, expected):
    # u_1 = (1 - alpha) alpha (c - a)^2 ... is about 3.8e-344 at 30 digits
    # and 0 in binary64; its root, 1.944e-172, is a normal double.
    with extended_precision(30):
        fam = ParaRacahFamily(a=Decimal("0.9"), c=Decimal("0.8"),
                              alpha=Decimal("1e-340"), q=Decimal("0.5"), N=1)
        tri = tridiagonal(fam)
        root = float(tri.u[0].sqrt())
    assert tri.positive and float(tri.u[0]) == 0
    assert root == pytest.approx(1.944444444444444e-172, rel=1e-15)
    b = [float(v) for v in tri.b]
    assert 2 * root < abs(b[0] - b[1])
    assert read(tri) == pytest.approx(expected(b, root), rel=1e-15)


# The QL oracle against matrices with known spectra.


def test_spectrum_of_diagonal_matrix():
    assert ql_spectrum(((3.0, -1.0, 2.0), (0.0, 0.0))) == pytest.approx([-1.0, 2.0, 3.0])


def test_spectrum_two_by_two_analytic():
    assert ql_spectrum(((0.0, 0.0), (1.0,))) == pytest.approx([-1.0, 1.0])


def _free_jacobi(n):
    # Zero diagonal, unit off-diagonal: eigenvalues 2 cos(k pi / (n + 1)).
    tri = TridiagonalSystem(family=None, b=(0.0,) * n, u=(1.0,) * (n - 1))
    return tri, sorted(2 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1))


@pytest.mark.parametrize("n", [2, 3, 7, 16, 30, 40])
def test_spectrum_free_jacobi_analytic(n):
    m, exact = _free_jacobi(n)
    eig = ql_spectrum(_matrix(m))
    assert len(eig) == n
    assert all(abs(x - y) <= 4 * math.ulp(matrix_norm(m)) for x, y in zip(eig, exact))


def test_spectrum_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        ql_spectrum(((0.0, math.nan), (1.0,)))


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
    assert persymmetry_residual(tridiagonal(fam)) <= 1e-12


def test_persymmetry_broken_away_from_half():
    assert persymmetry_residual(tridiagonal(FAM)) >= 1e-6


def test_spectrum_equals_bilattice():
    for N in (4, 5, 7, 9, 16, 30):
        tri = tridiagonal(FAM.replace(N=N))
        tol = 1e-9 * matrix_norm(tri)
        assert all(r <= tol for r in spectrum(tri, lattice(tri.family))), N


def test_isospectrality_across_deformations():
    points = lattice(FAM)
    half = spectrum(tridiagonal(FAM.replace(alpha=0.5)), points)
    norm = matrix_norm(tridiagonal(FAM))
    for al in (0.1, 0.3, 0.7, 0.9):
        radii = spectrum(tridiagonal(FAM.replace(alpha=al)), points)
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
        tri = tridiagonal(fam)
        points = [float(x) for x in family_module(fam).lattice(fam)]
        slack = 8 * EPS * matrix_norm(tri)
        paired = zip(ql_spectrum(_matrix(tri)), sorted(zip(points, spectrum(tri, points))))
        for eig, (x, r) in paired:
            assert abs(eig - x) <= r + slack, (fam, x, eig, r)


def _residual(matrix, x, y):
    """||(J - x) y|| / ||y|| over every row of J = ``matrix``."""
    diagonal, offdiag = matrix
    ee = (0.0, *offdiag, 0.0)
    v = (0.0, *y, 0.0)
    rows = (ee[k] * v[k] + (d - x) * v[k + 1] + ee[k + 1] * v[k + 2]
            for k, d in enumerate(diagonal))
    return math.hypot(*rows) / math.hypot(*v)


@pytest.mark.parametrize("fam", [
    ParaRacahFamily(a=0.9, c=0.7, alpha=0.75, q=0.2, N=60),
    para_krawtchouk.ParaKrawtchoukFamily(Delta=1.3, alpha=0.3, q=0.2, N=60),
], ids=["qpr", "qpk"])
def test_large_n_vectors_have_residuals_within_eight_eps(fam):
    # The entries of J span many decades; the pivots are ratios, so nothing
    # overflows and every vector's residual is a few ulps of ||J||.
    tri = tridiagonal(fam)
    m = _matrix(tri)
    points = [float(x) for x in family_module(fam).lattice(fam)]
    vectors, _ = lattice_vectors(m[0], [e * e for e in m[1]], points)
    bound = 8 * EPS * matrix_norm(tri)
    assert all(_residual(m, x, y) <= bound for x, y in zip(points, vectors))
    radii = spectrum(tri, points)
    if isinstance(fam, ParaRacahFamily):
        assert all(r <= bound for r in radii)
    else:
        # qpk's lattice points near 0 lie about 1e-21 apart, closer than
        # their radii: the intervals overlap, so none is certified alone.
        assert radii == [math.inf] * len(points)


# The zero-pivot rule of recurrence.lattice_vectors.


@pytest.mark.parametrize("scale", [1.0, 1e100])
def test_zero_pivots_of_the_free_jacobi_matrix(scale):
    # b = 0 and u = scale^2 on three rows.  At x = 0 the pivots from the top
    # are 0, inf and 0, and so are those from the bottom: the vector is read
    # across the zero pivots.  At scale 1e100, h_2 = 1e400 overflows, and
    # only its sign is read.
    tri = TridiagonalSystem(family=SimpleNamespace(require_distinct_strands=lambda: None),
                            b=(0.0,) * 3, u=(scale * scale,) * 2)
    points = (-math.sqrt(2) * scale, 0.0, math.sqrt(2) * scale)
    assert all(r <= 8 * EPS * matrix_norm(tri) for r in spectrum(tri, points))
    vectors, _ = lattice_vectors(tri.b, tri.u, points)
    weights = (0.25, 0.5, 0.25)
    assert weights_from_christoffel(tri, vectors) == pytest.approx(weights, rel=4 * EPS, abs=0)
    assert all(err <= 4 * EPS for err in gram_errors(vectors, weights, tri.h))


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_zero_pivot_at_a_lattice_point(alpha):
    # At the lattice point s = 13 the pivot from the top at k = 7 is exactly
    # 0 in double, at every alpha.
    fam = ParaRacahFamily(a=0.9, c=0.7, alpha=alpha, q=0.2, N=16)
    tri = tridiagonal(fam)
    diagonal, offdiag = _matrix(tri)
    points = lattice(fam)
    x = float(points[13])
    pivot = x - diagonal[0]
    for d, e in zip(diagonal[1:8], offdiag):
        pivot = (x - d) - e * e / pivot
    assert pivot == 0
    assert spectrum(tri, points)[13] <= 8 * EPS * matrix_norm(tri)
