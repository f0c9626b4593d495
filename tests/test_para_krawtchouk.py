import math
import random

import mpmath
import pytest
import support

from qortho import para_racah
from qortho.para_krawtchouk import (
    ParaKrawtchoukFamily,
    b_coefficient,
    eval_recurrence,
    lattice,
    u_coefficient,
    weights,
)
from qortho.para_racah import DegenerateFamilyError
from qortho.recurrence import persymmetry_residual, tridiagonal, weights_from_christoffel

ODD = ParaKrawtchoukFamily(Delta=1.3, alpha=0.35, q=0.5, N=5)
EVEN = ParaKrawtchoukFamily(Delta=1.3, alpha=0.35, q=0.5, N=6)


def test_mid_band_u_read_off():
    # at alpha = 1/2 the deformation slot is alpha(1-alpha)(Delta-1)^2
    # (1-q^(j+1))^2/(1-q)^2
    fam = ODD.replace(alpha=0.5)
    j, D, q = fam.j, fam.Delta, fam.q
    expected = 0.25 * (D - 1) ** 2 * (1 - q ** (j + 1)) ** 2 / (1 - q) ** 2
    assert u_coefficient(fam, j + 1) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 9])
def test_persymmetry_at_half(N):
    fam = ParaKrawtchoukFamily(Delta=1.3, alpha=0.5, q=0.5, N=N)
    assert persymmetry_residual(tridiagonal(fam)) <= 1e-12


def test_persymmetry_violated_away_from_half():
    assert persymmetry_residual(tridiagonal(ODD)) > 1e-6


def test_lattice_unit_strand_starts_at_one():
    assert lattice(ODD).points[1] == 1.0


def test_lattice_interleaving_and_sizes():
    pts = lattice(EVEN).points
    assert len(pts) == EVEN.N + 1
    assert pts[0] == pytest.approx(1.3)
    assert pts[2] == pytest.approx(1.3 * 0.5)


def test_degenerate_delta_collapses_strands():
    fam = ParaKrawtchoukFamily(Delta=1.0, alpha=0.5, q=0.5, N=5)
    pts = lattice(fam).points
    for s in range(fam.j + 1):
        assert pts[2 * s] == pytest.approx(pts[2 * s + 1])
    with pytest.raises(DegenerateFamilyError):
        weights(tridiagonal(fam))


def test_eval_trivial_degree():
    assert eval_recurrence(tridiagonal(ODD), 0, 0.77) == 1.0


@pytest.mark.parametrize("fam", [ODD, EVEN], ids=["odd", "even"])
def test_characteristic_roots_on_lattice(fam):
    tri = tridiagonal(fam)
    for y in lattice(fam).points:
        val = eval_recurrence(tri, fam.N + 1, y)
        assert abs(val) <= 1e-10


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7, 8, 9])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_gram_orthogonality_and_sums(N, alpha):
    fam = ParaKrawtchoukFamily(Delta=1.3, alpha=alpha, q=0.5, N=N)
    tri = tridiagonal(fam)
    assert tri.positive
    lw = weights(tri)
    se = sum(lw.weights[i] for i in range(0, N + 1, 2))
    so = sum(lw.weights[i] for i in range(1, N + 1, 2))
    assert abs(se - (1 - alpha)) <= 1e-9
    assert abs(so - alpha) <= 1e-9
    vals = [[eval_recurrence(tri, n, y) for y in lw.points] for n in range(N + 1)]
    for n in range(N + 1):
        for m in range(n + 1):
            g = sum(w * vals[n][s] * vals[m][s] for s, w in enumerate(lw.weights))
            if n == m:
                assert abs(g - lw.h[n]) <= 1e-8 * abs(lw.h[n])
            else:
                assert abs(g) <= 1e-8 * math.sqrt(lw.h[n] * lw.h[m])


def test_persymmetric_weights_reflect_through_gram_structure():
    # At alpha = 1/2 the top polynomial takes values +/- sqrt(h_N) on the
    # grid with signs alternating along the value-sorted lattice.
    for fam in (ODD.replace(alpha=0.5),
                EVEN.replace(alpha=0.5)):
        tri = tridiagonal(fam)
        hN = tri.h[-1]
        pts = lattice(fam).points
        vals = {y: eval_recurrence(tri, fam.N, y) for y in pts}
        for y, v in vals.items():
            assert abs(v) == pytest.approx(math.sqrt(hN), rel=1e-9)
        ordered = [vals[y] for y in sorted(pts)]
        for v1, v2 in zip(ordered, ordered[1:]):
            assert v1 * v2 < 0


@pytest.mark.parametrize("N", [4, 5])
def test_closed_forms_match_scaled_limit(N):
    # Rescaled biexponential coefficients at a c = theta -> infinity,
    # Richardson-accelerated over three decades at extended precision.
    with mpmath.workdps(50):
        D = mpmath.mpf("1.3")
        q = mpmath.mpf("0.5")
        al = mpmath.mpf("0.35")
        fam = ParaKrawtchoukFamily(Delta=D, alpha=al, q=q, N=N)
        for n in range(N + 1):
            vals_b, vals_u = [], []
            for k in (3, 4, 5):
                theta = mpmath.mpf(10) ** k
                a = mpmath.sqrt(theta * D)
                c = mpmath.sqrt(theta / D)
                big = para_racah.ParaRacahFamily(a=a, c=c, alpha=al, q=q, N=N)
                vals_b.append((2 * a / theta) * para_racah.b_coefficient(big, n))
                if n >= 1:
                    vals_u.append((4 * a * a / theta ** 2)
                                  * para_racah.u_coefficient(big, n))
            r = [(10 * hi - lo) / 9 for lo, hi in zip(vals_b, vals_b[1:])]
            b_ext = (100 * r[1] - r[0]) / 99
            assert abs(b_ext - b_coefficient(fam, n)) <= 1e-6 * max(1, abs(b_ext))
            if n >= 1:
                r = [(10 * hi - lo) / 9 for lo, hi in zip(vals_u, vals_u[1:])]
                u_ext = (100 * r[1] - r[0]) / 99
                assert abs(u_ext - u_coefficient(fam, n)) <= 1e-6 * max(1, abs(u_ext))


def test_lattice_is_scaled_limit_of_biexponential_grid():
    with mpmath.workdps(50):
        D = mpmath.mpf("1.3")
        q = mpmath.mpf("0.5")
        fam = ParaKrawtchoukFamily(Delta=D, alpha=mpmath.mpf("0.5"), q=q, N=5)
        target = lattice(fam).points
        vals = []
        for k in (3, 4, 5):
            theta = mpmath.mpf(10) ** k
            a = mpmath.sqrt(theta * D)
            c = mpmath.sqrt(theta / D)
            big = para_racah.ParaRacahFamily(a=a, c=c, alpha=mpmath.mpf("0.5"),
                                             q=q, N=5)
            vals.append([(2 * a / theta) * x for x in para_racah.lattice(big).points])
        for s in range(6):
            seq = [v[s] for v in vals]
            r = [(10 * hi - lo) / 9 for lo, hi in zip(seq, seq[1:])]
            ext = (100 * r[1] - r[0]) / 99
            assert abs(ext - target[s]) <= 1e-8 * max(1, abs(ext))


def test_eval_is_scaled_limit_of_biexponential_polynomials():
    with mpmath.workdps(50):
        D = mpmath.mpf("1.3")
        q = mpmath.mpf("0.5")
        al = mpmath.mpf("0.4")
        tri = tridiagonal(ParaKrawtchoukFamily(Delta=D, alpha=al, q=q, N=5))
        y = mpmath.mpf("0.8")
        for n in (2, 4):
            target = eval_recurrence(tri, n, y)
            vals = []
            for k in (3, 4, 5):
                theta = mpmath.mpf(10) ** k
                a = mpmath.sqrt(theta * D)
                c = mpmath.sqrt(theta / D)
                big = para_racah.ParaRacahFamily(a=a, c=c, alpha=al, q=q, N=5)
                scale = theta / (2 * a)
                # x = scale * y maps to z via the exponential representative
                x = scale * y
                z = x + mpmath.sqrt(x * x - 1)
                big_tri = tridiagonal(big)
                vals.append(scale ** -n * para_racah.eval_recurrence(big_tri, n, z))
            r = [(10 * hi - lo) / 9 for lo, hi in zip(vals, vals[1:])]
            ext = (100 * r[1] - r[0]) / 99
            assert abs(ext - target) <= 1e-6 * max(1, abs(target))


@pytest.mark.parametrize("num,dps,tol", [(float, 15, 1e-13), (mpmath.mpf, 50, 1e-45)],
                         ids=["double", "50"])
@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_christoffel_route_matches_closed_forms(N, num, dps, tol):
    # qpr's route, at qpk's lattice: it reads only the table and the points.
    with mpmath.workdps(dps):
        fam = ParaKrawtchoukFamily(Delta=num("1.3"), alpha=num("0.35"), q=num("0.5"), N=N)
        tri = tridiagonal(fam)
        lw, cw = weights(tri), weights_from_christoffel(tri)
        assert cw.points == lw.points and cw.positive_measure
        for w_closed, w_chr in zip(lw.weights, cw.weights):
            assert abs(w_closed - w_chr) <= tol * abs(w_closed)


@pytest.mark.parametrize("scalar", [float, mpmath.mpf], ids=["float", "mpf"])
def test_infinite_delta_is_refused(scalar):
    with pytest.raises(ValueError, match="^Delta must be finite$"):
        ParaKrawtchoukFamily(Delta=scalar("inf"), alpha=scalar(0.5), q=scalar(0.5), N=5)


def test_coefficient_validation():
    with pytest.raises(ValueError):
        ParaKrawtchoukFamily(Delta=1.3, alpha=0.5, q=1.5, N=4)
    with pytest.raises(ValueError):
        u_coefficient(ODD, 0)
    with pytest.raises(ValueError):
        b_coefficient(ODD, ODD.N + 1)


def _bits(v):
    if isinstance(v, (tuple, list)):
        return [_bits(x) for x in v]
    if isinstance(v, float):
        return ("float", v.hex())
    if isinstance(v, mpmath.mpf):
        return ("mpf", v._mpf_)
    return (type(v).__name__, repr(v))


def _outcome(compute, fam):
    """The bits of what ``compute`` returns for a fresh copy of the family,
    or the type and text of what it raises."""
    try:
        return _bits(compute(tridiagonal(fam.replace())))
    except ArithmeticError as exc:
        return (type(exc), str(exc))


def _library(tri):
    lw = weights(tri)
    return lw.points, lw.weights, lw.h, lw.k_norm


def _random_families(rng, count):
    """Families from N 1-24, q 0.15-0.9 and Delta 0.05-3, with Delta also at
    1 and next to it, and at q^k, where a denominator of the weights vanishes."""
    for _ in range(count):
        q = rng.uniform(0.15, 0.9)
        special = rng.choice((1.0, 1 + 1e-13, 1 - 1e-13, q, q * q, 1 / q, 1 / (q * q)))
        D = rng.uniform(0.05, 3.0) if rng.random() < 0.7 else special
        yield D, rng.uniform(0.01, 0.99), q, rng.randint(1, 24)


@pytest.mark.parametrize("num,digits", [(float, 15), (mpmath.mpf, 50)],
                         ids=["double", "mpf50"])
def test_weights_match_the_per_point_reference_bit_for_bit(num, digits):
    rng = random.Random(20261018)
    refused = 0
    with mpmath.workdps(digits):
        for D, al, q, N in _random_families(rng, 150):
            fam = ParaKrawtchoukFamily(Delta=num(D), alpha=num(al), q=num(q), N=N)
            got = _outcome(_library, fam)
            assert got == _outcome(support.qpk_weights_reference, fam), fam
            refused += isinstance(got[0], type)
    assert 0 < refused < 150
