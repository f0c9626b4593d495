import collections
import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

import support
from oracles.para_racah import (char_poly_eval, char_poly_scale, explicit_series_value,
                                positivity_check)
from qortho import para_krawtchouk, para_racah, verify
from qortho.para_racah import (
    DegenerateFamilyError,
    ParaRacahFamily,
    b_coefficient,
    eval_explicit,
    eval_recurrence,
    lattice,
    limit_rows,
    qdiff_eigenvalue,
    qdiff_residual,
    u_coefficient,
    weights,
    weights_from_christoffel,
)
from qortho.qseries import PowerTable
from qortho.recurrence import family_module, lattice_vectors, persymmetry_residual, tridiagonal
from qortho.scalars import GUARD_DIGITS, extended_precision, to_extended

ODD = ParaRacahFamily(a=0.9, c=0.7, alpha=0.3, q=0.5, N=5)
EVEN = ParaRacahFamily(a=0.9, c=0.7, alpha=0.3, q=0.5, N=6)


# ---------------------------------------------------------------------------
# construction and coefficients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(a=0.9, c=0.7, alpha=1.5, q=0.5, N=5),
    dict(a=0.9, c=0.7, alpha=0.5, q=1.2, N=5),
    dict(a=0.9, c=0.7, alpha=0.5, q=0.5, N=0),
    dict(a=-0.9, c=0.7, alpha=0.5, q=0.5, N=5),
])
def test_family_validation(kwargs):
    with pytest.raises(ValueError):
        ParaRacahFamily(**kwargs)


@pytest.mark.parametrize("scalar", [float, Decimal], ids=["float", "mpf"])
@pytest.mark.parametrize("field", ["a", "c"])
def test_infinite_a_or_c_is_refused(scalar, field):
    params = dict(a=scalar(0.9), c=scalar(0.7), alpha=scalar(0.5), q=scalar(0.5), N=5)
    params[field] = scalar("inf")
    with pytest.raises(ValueError, match="^parameters a and c must be finite$"):
        ParaRacahFamily(**params)


def test_parity_and_j():
    assert ODD.odd and ODD.j == 2
    assert not EVEN.odd and EVEN.j == 3


def test_mid_band_u_vanishes_when_strands_coincide():
    fam = ParaRacahFamily(a=0.8, c=0.8, alpha=0.4, q=0.5, N=5)
    assert u_coefficient(fam, fam.j + 1) == 0.0


def test_persymmetric_point_has_equal_mid_diagonals():
    fam = ODD.replace(alpha=0.5)
    assert b_coefficient(fam, fam.j) == pytest.approx(
        b_coefficient(fam, fam.j + 1), rel=1e-14)


def test_top_u_vanishes():
    assert u_coefficient(ODD, ODD.N + 1) == pytest.approx(0.0, abs=1e-14)
    assert u_coefficient(EVEN, EVEN.N + 1) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("n", [-1, 7])
def test_coefficient_range_errors(n):
    fam = ParaRacahFamily(a=0.9, c=0.7, alpha=0.3, q=0.5, N=6)
    if n < 0:
        with pytest.raises(ValueError):
            b_coefficient(fam, n)
    with pytest.raises(ValueError):
        u_coefficient(fam, 0)


def test_spec_point_u2_matches_resolved_parent_product():
    # N=3, j=1: u_2 = (1/4) A_1 C_2 from the resolved parent limits.
    fam = ParaRacahFamily(a=0.9, c=0.7, alpha=0.5, q=0.5, N=3)
    (A1, _), (_, C2) = limit_rows(fam, (1, 2))
    assert u_coefficient(fam, 2) == pytest.approx(A1 * C2 / 4, rel=1e-13)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7])
def test_coefficients_against_substitution_oracle(N):
    # Tiny-t substitution into the raw parent coefficients at high precision.
    fam = ParaRacahFamily(a=0.9, c=0.7, alpha=0.3, q=0.5, N=N)
    with extended_precision(support.ORACLE_DPS):
        hi = ParaRacahFamily(a=Decimal(0.9), c=Decimal(0.7),
                             alpha=Decimal(0.3), q=Decimal(0.5), N=N)
        for n in range(N + 1):
            b_or, u_or = support.oracle_recurrence_coefficients(hi, n)
            b_cf = b_coefficient(hi, n)
            assert abs(b_cf - b_or) <= abs(b_or) * Decimal("1e-40")
            if n >= 1:
                u_cf = u_coefficient(hi, n)
                assert abs(u_cf - u_or) <= abs(u_or) * Decimal("1e-40")
    assert b_coefficient(fam, 0) == pytest.approx(
        float(b_coefficient(hi, 0)), rel=1e-14)


# ---------------------------------------------------------------------------
# tridiagonal system
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [3, 4, 5, 6, 9])
def test_persymmetry_at_half(N):
    fam = ParaRacahFamily(a=0.9, c=0.7, alpha=0.5, q=0.5, N=N)
    assert persymmetry_residual(tridiagonal(fam)) <= 1e-12


def test_persymmetry_violated_away_from_half():
    tri = tridiagonal(ODD)
    assert persymmetry_residual(tri) > 1e-6
    assert abs(tri.b[ODD.j] - tri.b[ODD.j + 1]) > 1e-6


def test_positivity_flag_in_region():
    assert tridiagonal(ODD).positive
    assert tridiagonal(EVEN).positive


def test_boundary_ratio_kills_positivity():
    # a/c = q puts a zero into the sub-diagonal scan.
    q = 0.5
    fam = ParaRacahFamily(a=0.4, c=0.8, alpha=0.5, q=q, N=5)
    tri = tridiagonal(fam)
    assert not tri.positive
    assert min(abs(v) for v in tri.u) <= 1e-14


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_recurrence_trivial_degrees():
    z = 1.8
    x = (z + 1 / z) / 2
    tri = tridiagonal(ODD)
    assert eval_recurrence(tri, 0, z) == 1.0
    assert eval_recurrence(tri, 1, z) == pytest.approx(x - b_coefficient(ODD, 0))


def test_recurrence_rejects_bad_input():
    with pytest.raises(ValueError):
        eval_recurrence(tridiagonal(ODD), ODD.N + 2, 1.5)
    with pytest.raises(ValueError):
        eval_recurrence(tridiagonal(ODD), 2, 0.0)


BRANCH_CASES = [
    (5, 1),   # odd, below the middle
    (5, 2),   # odd, n = j (truncated sum)
    (5, 3),   # odd, n = j + 1 (truncated sum plus deformation term)
    (5, 4),   # odd, combination of two series
    (5, 5),
    (6, 2),   # even, single series
    (6, 3),   # even, n = j
    (6, 4),   # even, combination of two series
    (6, 6),
]


@pytest.mark.parametrize("N,n", BRANCH_CASES)
def test_explicit_matches_recurrence_every_branch(N, n):
    rng = random.Random(100 * N + n)
    for alpha in (0.25, 0.5, 0.75):
        fam = ParaRacahFamily(a=0.9, c=0.7, alpha=alpha, q=0.5, N=N)
        tri = tridiagonal(fam)
        zs = [rng.uniform(1.1, 2.5) for _ in range(8)]
        for z, e in zip(zs, eval_explicit(tri, zs)[n]):
            r = eval_recurrence(tri, n, z)
            assert abs(e - r) <= 1e-8 * max(abs(r), abs(e))


def test_explicit_degree_zero():
    assert eval_explicit(tridiagonal(ODD), [1.7])[0] == [pytest.approx(1.0, rel=1e-14)]


def test_explicit_rows_run_from_degree_zero_to_the_top_degree():
    rows = eval_explicit(tridiagonal(ODD), [1.7, 2.1])
    assert len(rows) == ODD.N + 1
    assert all(len(row) == 2 for row in rows)
    with pytest.raises(ValueError, match="nonzero"):
        eval_explicit(tridiagonal(ODD), [1.7, 0.0])


@pytest.mark.parametrize("N", range(1, 15))
def test_explicit_matches_recurrence_at_60_digits(N):
    # Every degree of both parities; the series cancel like q^(-j^2), which
    # leaves about 40 of the 60 digits at q = 0.4 and N = 14.
    rng = random.Random(600 + N)
    with extended_precision(60):
        for q in ("0.4", "0.7"):
            fam = ParaRacahFamily(a=Decimal("0.9"), c=Decimal("0.7"),
                                  alpha=Decimal("0.3"), q=Decimal(q), N=N)
            tri = tridiagonal(fam)
            zs = [Decimal(rng.uniform(1.1, 2.5)) for _ in range(3)]
            for n, row in enumerate(eval_explicit(tri, zs)):
                for z, e in zip(zs, row):
                    r = eval_recurrence(tri, n, z)
                    assert abs(e - r) <= Decimal("1e-30") * max(abs(r), abs(e)), (q, n)


# ---------------------------------------------------------------------------
# lattice and characteristic polynomial
# ---------------------------------------------------------------------------


def test_lattice_first_point():
    points = lattice(ODD)
    assert points[0] == pytest.approx((1 / 0.9 + 0.9) / 2, rel=1e-15)
    assert support.lattice_z(ODD)[0] == pytest.approx(0.9)


def test_lattice_sizes_by_parity():
    assert len(lattice(ODD)) == ODD.N + 1
    assert len(lattice(EVEN)) == EVEN.N + 1
    # even case: c-strand is one shorter, top entry belongs to the a-strand
    assert support.lattice_z(EVEN)[-1] == pytest.approx(0.9 * 0.5 ** EVEN.j)


def test_degenerate_strands_coincide():
    fam = ParaRacahFamily(a=0.8, c=0.8, alpha=0.5, q=0.5, N=5)
    points = lattice(fam)
    for s in range(fam.j + 1):
        assert points[2 * s] == pytest.approx(points[2 * s + 1], rel=1e-15)


@pytest.mark.parametrize("fam", [ODD, EVEN], ids=["odd", "even"])
def test_lattice_points_are_characteristic_roots(fam):
    for z in support.lattice_z(fam):
        val, peak = support.eval_recurrence_with_peak(
            b_coefficient, u_coefficient, fam, fam.N + 1, (z + 1 / z) / 2)
        assert abs(val) <= 1e-9 * peak
        assert abs(char_poly_eval(fam, z)) <= 1e-12


@pytest.mark.parametrize("fam", [ODD, EVEN], ids=["odd", "even"])
def test_char_poly_proportionality(fam):
    rng = random.Random(9)
    tri = tridiagonal(fam)
    kappa = char_poly_scale(tri)
    for _ in range(10):
        z = rng.uniform(1.1, 2.8)
        r = eval_recurrence(tri, fam.N + 1, z)
        p = kappa * char_poly_eval(fam, z)
        assert abs(r - p) <= 1e-8 * max(abs(r), abs(p))


def test_degenerate_double_roots():
    # c = a doubles every root: the factored form has vanishing derivative
    # at the lattice, probed with a central difference in z.
    fam = ParaRacahFamily(a=0.8, c=0.8, alpha=0.5, q=0.5, N=5)
    for z in support.lattice_z(fam)[::2]:
        h = 1e-6 * z
        deriv = (char_poly_eval(fam, z + h) - char_poly_eval(fam, z - h)) / (2 * h)
        second = (char_poly_eval(fam, z + h) - 2 * char_poly_eval(fam, z)
                  + char_poly_eval(fam, z - h)) / h ** 2
        assert abs(deriv) <= 1e-6 * max(1.0, abs(second) * abs(z))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7, 8, 9])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_weight_strand_sums(N, alpha):
    fam = ParaRacahFamily(a=0.9, c=0.7, alpha=alpha, q=0.5, N=N)
    lw = weights(fam)
    se = sum(lw.weights[i] for i in range(0, N + 1, 2))
    so = sum(lw.weights[i] for i in range(1, N + 1, 2))
    assert abs(se - (1 - alpha)) <= 1e-9
    assert abs(so - alpha) <= 1e-9
    assert all(w > 0 for w in lw.weights)


@pytest.mark.parametrize("a,c,q,N", [("1", "0.7", "0.5", 5), ("1", "0.6", "0.5", 6),
                                     ("0.8", "1", "0.5", 5), ("2", "1", "0.2", 8)])
def test_weights_at_a_strand_parameter_of_1_are_its_limit(a, c, q, N):
    # 10^-40 away from 1, the strand's 1 - x^2 keeps 20 of 60 digits and
    # cancels exactly against the first factor of (x^2; q)_s, so that table
    # is within about 10^-40 of the one whose zero is cancelled by hand.
    def near(v):
        return Decimal(v) + Decimal("1e-40") if v == "1" else Decimal(v)
    with extended_precision(60):
        at = weights(ParaRacahFamily(Decimal(a), Decimal(c), Decimal("0.3"), Decimal(q), N))
        by = weights(ParaRacahFamily(near(a), near(c), Decimal("0.3"), Decimal(q), N))
    for u, v in zip(at.weights + at.weights_half, by.weights + by.weights_half):
        assert abs(u - v) <= Decimal("1e-38") * abs(v)


@pytest.mark.parametrize("fam", [ODD, EVEN], ids=["odd", "even"])
def test_gram_orthogonality(fam):
    tri = tridiagonal(fam)
    lw = weights(fam)
    vals = [[eval_recurrence(tri, n, z) for z in support.lattice_z(fam)]
            for n in range(fam.N + 1)]
    for n in range(fam.N + 1):
        for m in range(n + 1):
            g = sum(w * vals[n][s] * vals[m][s] for s, w in enumerate(lw.weights))
            if n == m:
                assert abs(g - tri.h[n]) <= 1e-8 * abs(tri.h[n])
            else:
                assert abs(g) <= 1e-8 * math.sqrt(tri.h[n] * tri.h[m])


@pytest.mark.parametrize("fam", [ODD, EVEN], ids=["odd", "even"])
def test_christoffel_route_matches_closed_forms(fam):
    tri = tridiagonal(fam)
    lw = weights(fam)
    vectors, twist = lattice_vectors(tri.b, tri.u, lw.points)
    cw = weights_from_christoffel(tri, vectors)
    for w_closed, w_chr in zip(lw.weights, cw):
        assert abs(w_closed - w_chr) <= 1e-7 * abs(w_closed)
    assert all(w > 0 for w in cw)
    assert twist <= 1e-14


@pytest.mark.parametrize("N", [8, 9])
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
def test_christoffel_route_matches_closed_forms_of_a_signed_measure(kind, N):
    # At q = 0.8 some u_n and h_n are negative: w_s = y_0^2 / sum_n
    # sign(h_n) y_n^2 still gives the closed-form weights, negative ones too.
    fam = (ParaRacahFamily(a=0.9, c=0.7, alpha=0.5, q=0.8, N=N) if kind == "qpr"
           else para_krawtchouk.ParaKrawtchoukFamily(Delta=1.3, alpha=0.5, q=0.8, N=N))
    tri = tridiagonal(fam)
    lw = family_module(fam).weights(fam)
    vectors, twist = lattice_vectors(tri.b, tri.u, lw.points)
    cw = weights_from_christoffel(tri, vectors)
    assert not tri.positive and not all(w > 0 for w in cw) and twist <= 1e-14
    for w_closed, w_chr in zip(lw.weights, cw):
        assert abs(w_closed - w_chr) <= 1e-7 * abs(w_closed)


def test_weights_refuse_degenerate_spectrum():
    fam = ParaRacahFamily(a=0.8, c=0.8, alpha=0.5, q=0.5, N=5)
    with pytest.raises(DegenerateFamilyError):
        weights(fam)
    # At c = a a mid-band u_n vanishes and the weights are undefined: the
    # Christoffel route refuses the family before it reads a vector.
    with pytest.raises(DegenerateFamilyError):
        weights_from_christoffel(tridiagonal(fam), [])


@pytest.mark.parametrize("scalar,dps", [(float, 15), (Decimal, 50)], ids=["double", "50"])
def test_explicit_refuses_degenerate_family(scalar, dps):
    with extended_precision(dps):
        for N in (5, 6):
            fam = ParaRacahFamily(a=scalar(0.7), c=scalar(0.7), alpha=scalar(0.5),
                                  q=scalar(0.5), N=N)
            with pytest.raises(DegenerateFamilyError, match="explicit expansion"):
                eval_explicit(tridiagonal(fam), [scalar(1.7)])


def test_signed_measure_is_flagged_not_raised():
    fam = ParaRacahFamily(a=0.9, c=0.2, alpha=0.5, q=0.5, N=4)
    assert not positivity_check(tridiagonal(fam)).u_positive
    lw = weights(fam)
    assert not all(w > 0 for w in lw.weights)


def test_beta_factor_profile():
    for alpha in (0.25, 0.75):
        fam = ODD.replace(alpha=alpha)
        lw = weights(fam)
        ratios = [w / wh for w, wh in zip(lw.weights, lw.weights_half)]
        beta = (ratios[0] - ratios[1]) / (ratios[0] + ratios[1])
        assert beta == pytest.approx(1 - 2 * alpha, abs=1e-9)
        const = ratios[0] / (1 + beta)
        for s, r in enumerate(ratios):
            assert r == pytest.approx(const * (1 + beta * (-1) ** s), rel=1e-9)


def test_signed_square_root_evaluation_at_half():
    # R_N on the lattice equals +/- sqrt(h_N) with alternating sign; the
    # printed orientation (-1)^(N+s) is the a > c one and flips globally for
    # a < c in the odd case.
    for a, c, sigma in ((0.9, 0.7, 1.0), (0.7, 0.9, -1.0)):
        fam = ParaRacahFamily(a=a, c=c, alpha=0.5, q=0.5, N=5)
        tri = tridiagonal(fam)
        root = math.sqrt(tri.h[-1])
        for s, z in enumerate(support.lattice_z(fam)):
            expected = sigma * (-1) ** (fam.N + s) * root
            assert eval_recurrence(tri, fam.N, z) == pytest.approx(expected, rel=1e-8)


def test_k_norm_is_square_root_of_product_odd_case():
    half = tridiagonal(ODD.replace(alpha=0.5))
    k_norm = para_racah._k_norm(half.family)
    assert abs(k_norm) == pytest.approx(math.sqrt(half.h[-1]), rel=1e-12)


def test_analytic_derivative_matches_finite_differences():
    # Product-rule derivative of the monic characteristic polynomial vs a
    # 5-point central difference through the z-parametrization.
    for fam in (ODD, EVEN):
        tri = tridiagonal(fam)
        pts = lattice(fam)
        for s, z in enumerate(support.lattice_z(fam)):
            analytic = 1.0
            for k, xk in enumerate(pts):
                if k != s:
                    analytic *= pts[s] - xk
            h = 1e-4 * z
            vals = [eval_recurrence(tri, fam.N + 1, z + m * h) for m in (-2, -1, 1, 2)]
            dz = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
            fd = dz * 2 * z ** 2 / (z ** 2 - 1)
            assert fd == pytest.approx(analytic, rel=1e-6)


# ---------------------------------------------------------------------------
# q-difference operator
# ---------------------------------------------------------------------------


def test_qdiff_degree_zero_annihilated():
    [(res, scale)] = qdiff_residual(tridiagonal(ODD), [2.2])[0]
    assert abs(res) <= 1e-14 * scale


@pytest.mark.parametrize("fam", [ODD, EVEN], ids=["odd", "even"])
def test_qdiff_residual_small(fam):
    rng = random.Random(fam.N)
    tri = tridiagonal(fam)
    zs = [rng.uniform(2.0, 3.0) for _ in range(5)]
    for row in qdiff_residual(tri, zs):
        for res, scale in row:
            assert abs(res) <= 1e-9 * scale


def test_qdiff_eigenvalue_degeneracy():
    for fam in (ODD, EVEN):
        for n in range(1, fam.N):
            lam = qdiff_eigenvalue(fam, n)
            assert abs(lam - qdiff_eigenvalue(fam, fam.N - n)) <= 1e-14 * abs(lam)


def test_qdiff_eigenvalue_endpoints_vanish():
    assert qdiff_eigenvalue(ODD, 0) == 0.0
    assert abs(qdiff_eigenvalue(ODD, ODD.N)) <= 1e-15


# ---------------------------------------------------------------------------
# positivity report
# ---------------------------------------------------------------------------


def test_positivity_check_passes_in_region():
    rep = positivity_check(tridiagonal(ParaRacahFamily(a=0.9, c=0.7, alpha=0.3, q=0.5, N=4)))
    assert rep.conditions_ok and rep.u_positive


def test_positivity_check_flags_ratio_violation():
    q = 0.5
    rep = positivity_check(tridiagonal(ParaRacahFamily(a=0.2, c=0.8, alpha=0.5, q=q, N=5)))
    assert not rep.conditions_ok
    assert "q < a/c < 1/q" in rep.failed_conditions
    assert not rep.u_positive


def test_positivity_check_interior_point():
    rep = positivity_check(tridiagonal(ParaRacahFamily(a=0.8, c=0.6, alpha=0.5, q=0.4, N=6)))
    assert rep.conditions_ok and rep.u_positive


def test_even_case_conditions_are_not_sharp():
    # The printed inequalities admit a < c for even N, but the direct u-scan
    # rejects it: the two verdicts intentionally disagree there.
    rep = positivity_check(tridiagonal(ParaRacahFamily(a=0.7, c=0.9, alpha=0.5, q=0.5, N=4)))
    assert rep.conditions_ok
    assert not rep.u_positive


# ---------------------------------------------------------------------------
# per-degree routes against their per-point references, bit for bit
# ---------------------------------------------------------------------------


def _draw_family(rng, N, scalar=float):
    while True:
        a, c = rng.uniform(0.1, 0.99), rng.uniform(0.1, 0.99)
        if abs(a - c) > 1e-3:
            return ParaRacahFamily(a=scalar(a), c=scalar(c),
                                   alpha=scalar(rng.uniform(0.05, 0.95)),
                                   q=scalar(rng.uniform(0.1, 0.9)), N=N)


def _complex_point(re, im, scalar=float):
    """re + i im, a complex for a float scalar, else an ExtendedComplex."""
    z = complex(re, im)
    return z if scalar is float else to_extended(z)


def test_extended_complex_arithmetic_agrees_with_complex():
    rng = random.Random(5)
    with extended_precision(40):
        for _ in range(200):
            z, w = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2))
            r = rng.uniform(-2, 2)
            Z, W, R = to_extended(z), to_extended(w), Decimal(r)
            for got, want in [(Z + W, z + w), (Z - W, z - w), (Z * W, z * w), (Z / W, z / w),
                              (R + Z, r + z), (R - Z, r - z), (R * Z, r * z), (R / Z, r / z),
                              (Z / R, z / r), (1 - Z, 1 - z), (1 / Z, 1 / z), (-Z, -z)]:
                assert abs(complex(got) - want) <= 1e-15 * max(abs(want), 1)
            assert float(abs(Z)) == pytest.approx(abs(z), rel=1e-15)
            assert Z == to_extended(z) and hash(Z) == hash(to_extended(z)) and Z != W
            assert complex(+Z) == z
            real = to_extended(complex(r, 0))
            assert real == R and hash(real) == hash(R)


def _draw_points(rng, scalar=float):
    """Three real points above 1, three below 1 and three complex points."""
    real = [scalar(rng.uniform(1.15, 2.5)) for _ in range(3)]
    recip = [1 / scalar(rng.uniform(1.15, 2.5)) for _ in range(3)]
    cplx = [_complex_point(rng.uniform(1.15, 2.5), rng.uniform(-1, 1), scalar)
            for _ in range(3)]
    return real + recip + cplx


@pytest.mark.parametrize("N", range(1, 21))
def test_explicit_equals_per_point_reference_in_double(N):
    rng = random.Random(1000 + N)
    for _ in range(3):
        tri = tridiagonal(_draw_family(rng, N))
        zs = _draw_points(rng)
        assert eval_explicit(tri, zs) == support.eval_explicit_reference(tri, zs)


@pytest.mark.parametrize("N,scalar,dps", [(8, float, 15), (9, float, 15), (20, Decimal, 50)],
                         ids=["8", "9", "20-50"])
def test_explicit_equals_reference_where_the_rerun_fires(monkeypatch, N, scalar, dps):
    plans = []
    original = para_racah._explicit_plan
    monkeypatch.setattr(para_racah, "_explicit_plan",
                        lambda fam, n: plans.append(n) or original(fam, n))
    with extended_precision(dps):
        fam = ParaRacahFamily(a=scalar("0.9"), c=scalar("0.7"), alpha=scalar("0.3"),
                              q=scalar("0.3"), N=N)
        tri = tridiagonal(fam)
        zs = _draw_points(random.Random(N), scalar)
        assert eval_explicit(tri, zs) == support.eval_explicit_reference(tri, zs)
    # One plan per degree, and a second for a degree that reruns.
    assert plans[:N + 1] == list(range(N + 1)) and len(plans) > N + 1


@pytest.mark.parametrize("N,scalar,dps", [(9, float, 15), (20, Decimal, 50)], ids=["9", "20-50"])
def test_a_complex_value_that_cancels_is_summed_again(N, scalar, dps):
    # R_N at a complex point loses about 8 digits in double and 46 at 50
    # digits to cancellation; summed again as an ExtendedComplex, it comes
    # back in the point's type within a few units of its working roundoff.
    with extended_precision(dps):
        fam = ParaRacahFamily(a=scalar("0.9"), c=scalar("0.7"), alpha=scalar("0.3"),
                              q=scalar("0.3"), N=N)
        point = _complex_point(1.6, 0.4, scalar)
        value = eval_explicit(tridiagonal(fam), [point])[N][0]
    assert type(value) is type(point)
    with extended_precision(dps + 40):
        hi = fam.replace(a=to_extended(fam.a), c=to_extended(fam.c),
                         alpha=to_extended(fam.alpha), q=to_extended(fam.q))
        exact = eval_recurrence(tridiagonal(hi), N, to_extended(point))
        error = abs(to_extended(value) - exact)
        assert error * _inverse_unit_roundoff(scalar, dps) <= 4 * abs(exact)


@pytest.mark.parametrize("N", range(1, 21))
def test_explicit_equals_per_point_reference_at_60_digits(N):
    rng = random.Random(2000 + N)
    with extended_precision(60):
        tri = tridiagonal(_draw_family(rng, N, Decimal))
        zs = _draw_points(rng, Decimal)
        assert eval_explicit(tri, zs) == support.eval_explicit_reference(tri, zs)


@pytest.mark.parametrize("scalar,dps", [(float, 15), (Decimal, 50)], ids=["double", "50"])
def test_explicit_agrees_with_the_per_point_series_form(scalar, dps):
    # The coefficient rows regroup the per-point series of the expression.
    # Where neither form's term magnitude asks for a rerun, each keeps
    # _EXPLICIT_ACCURACY of R_n, so the two agree within twice that.
    rng = random.Random(3000 + dps)
    accuracy = scalar(para_racah._EXPLICIT_ACCURACY)
    compared = 0
    with extended_precision(dps):
        trigger = accuracy * _inverse_unit_roundoff(scalar, dps)
        for N in range(1, 17):
            tri = tridiagonal(_draw_family(rng, N, scalar))
            fam = tri.family
            zs = _draw_points(rng, scalar)
            points = [para_racah._point_factors(fam, z) for z in zs]
            for n in range(N + 1):
                row = para_racah._explicit_plan(fam, n)
                for z, basis in zip(zs, points):
                    got, magnitude = para_racah._explicit_value(row, basis)
                    want, series_magnitude = explicit_series_value(fam, n, z)
                    if max(magnitude, series_magnitude) > trigger * abs(want):
                        continue
                    assert abs(got - want) <= 2 * accuracy * abs(want), (N, n, z)
                    compared += 1
    assert compared > 1000


def _inverse_unit_roundoff(scalar, dps):
    """1/u: 2^53 in binary64, 2 * 10^(P-1) for a Decimal of P = dps digits
    and the context's guard digits."""
    return 2 ** 53 if scalar is float else 2 * 10 ** (dps + GUARD_DIGITS - 1)


@pytest.mark.parametrize("N", range(1, 17))
def test_explicit_is_within_a_tenth_of_its_tolerance_of_the_exact_value(monkeypatch, N):
    # A Fraction family builds the same coefficient and basis rows and dot
    # products with no rounding: its values are R_n exactly, the
    # recurrence's in Fractions, at the binary parameters and dyadic points
    # that double and Decimal hold exactly.  So the digits each value
    # loses are known exactly, and every value that loses more than the rule
    # allows must have been rerun.
    reran = []
    original = para_racah._rerun
    monkeypatch.setattr(para_racah, "_rerun", lambda fam, zs, rows, flagged, prec: (
        reran.extend((n, i) for n, i, _ in flagged), original(fam, zs, rows, flagged, prec)))
    zs = [1.25, 1.625, 2.375, 0.75]
    accuracy = Fraction(para_racah._EXPLICIT_ACCURACY)
    tolerance = Fraction(verify.TOL_EXPLICIT) / 10
    for q in (0.2, 0.3, 0.4, 0.5):
        params = dict(a=0.9, c=0.7, alpha=0.3, q=q)
        exact_fam = ParaRacahFamily(N=N, **{k: Fraction(v) for k, v in params.items()})
        exact_tri = tridiagonal(exact_fam)
        points = [para_racah._point_factors(exact_fam, Fraction(z)) for z in zs]
        exact = [[para_racah._explicit_value(para_racah._explicit_plan(exact_fam, n), point)
                  for point in points] for n in range(N + 1)]
        for i, z in enumerate(map(Fraction, zs)):
            assert [row[i][0] for row in exact] == exact_tri.values((z + 1 / z) / 2, N)
        for scalar, dps in ((float, 15), (Decimal, 50)):
            with extended_precision(dps):
                fam = ParaRacahFamily(N=N, **{k: scalar(v) for k, v in params.items()})
                reran.clear()
                rows = eval_explicit(tridiagonal(fam), [scalar(z) for z in zs])
            trigger = accuracy * _inverse_unit_roundoff(scalar, dps)
            for n, (row, exact_row) in enumerate(zip(rows, exact)):
                for i, (got, (value, magnitude)) in enumerate(zip(row, exact_row)):
                    assert abs(Fraction(got) - value) <= tolerance * abs(value), (q, dps, n, i)
                    if magnitude > trigger * abs(value):
                        assert (n, i) in reran, (q, dps, n, i)


def _outcome(route, *args):
    try:
        return route(*args)
    except ArithmeticError as exc:
        return type(exc), getattr(exc, "parameter", None), getattr(exc, "index", None)


def test_explicit_singular_denominators_raise_as_the_reference():
    # a c = q^-m or a / c = q^m with exact binary powers of q = 1/2 make a
    # denominator factor of the head, middle or tail series vanish.  All
    # degrees are evaluated together, so the outcome is the reference's at
    # the lowest degree that raises.
    reciprocal = 0
    zs = [1.7, 2.2]
    for N in range(1, 13):
        for m in range(-3, 4):
            for a, c in ((2.0 ** m, 2.0 ** -m / 4), (2.0 ** -m, 0.5), (0.5, 2.0 ** m)):
                fam = ParaRacahFamily(a=a, c=c, alpha=0.3, q=0.5, N=N)
                tri = tridiagonal(fam)
                got = _outcome(eval_explicit, tri, zs)
                j = N // 2
                shared = fam.degenerate or any(a / c == 0.5 ** k for k in range(-j, N - j))
                if shared or any(a * c == 2.0 ** k for k in range(N)):
                    # c = a, a / c = q^k with both strands holding the point
                    # (a q^s = c q^t, s <= j, t < N - j), or a c q^k = 1
                    # (k < N), whose strand points z, z' with z z' = 1 are
                    # one point x, is refused before any sum.  a^2 q^k = 1
                    # and c^2 q^k = 1 vanish in no denominator here and are
                    # evaluated as the reference evaluates them.
                    assert got == (DegenerateFamilyError, None, None)
                    reciprocal += not shared
                    continue
                assert got == _outcome(support.eval_explicit_reference, tri, zs), (N, m, a, c)
    # Among these are all 17 families of the grid whose series meet a
    # vanishing denominator; the guard itself is tested in test_qseries.
    assert reciprocal == 27


@pytest.mark.parametrize("scalar,dps", [(float, 15), (Decimal, 60)], ids=["double", "60"])
def test_qdiff_residual_equals_per_point_reference(scalar, dps):
    rng = random.Random(7)
    with extended_precision(dps):
        for N in range(1, 21):
            tri = tridiagonal(_draw_family(rng, N, scalar))
            zs = [scalar(rng.uniform(2.0, 3.0)) for _ in range(4)]
            zs.append(_complex_point(rng.uniform(2.0, 3.0), rng.uniform(-1, 1), scalar))
            assert qdiff_residual(tri, zs) == [
                [support.qdiff_residual_reference(tri, n, z) for z in zs]
                for n in range(N + 1)]


@pytest.mark.parametrize("scalar,dps", [(float, 15), (Decimal, 40)], ids=["double", "40"])
def test_weights_equal_per_point_reference(scalar, dps):
    rng = random.Random(11)
    with extended_precision(dps):
        for N in range(1, 21):
            fam = _draw_family(rng, N, scalar)
            lw = weights(fam)
            half = fam.replace(alpha=scalar(0.5))
            k_norm = para_racah._k_norm(fam)
            assert lw.weights == tuple(support.weight_reference(fam, i, k_norm)
                                       for i in range(N + 1))
            assert lw.weights_half == tuple(support.weight_reference(half, i, k_norm)
                                            for i in range(N + 1))


@pytest.mark.parametrize("N", range(1, 13))
def test_explicit_builds_each_point_and_each_degree_once(monkeypatch, N):
    # Each point's basis row is built once for every degree, each degree's
    # coefficient row once for every point, and no q-Pochhammer symbol is
    # taken per point.  A rerun (N = 12 cancels past 30 digits) builds the
    # rows of its degrees and of its points once more, at one higher
    # precision.
    calls = collections.Counter()
    for name in ("qpochhammer", "_point_factors", "_explicit_plan"):
        original = getattr(para_racah, name)
        monkeypatch.setattr(para_racah, name, lambda *args, _name=name, _f=original:
                            calls.update([(_name, getcontext().prec)]) or _f(*args))
    with extended_precision(30):
        work = getcontext().prec
        tri = tridiagonal(_draw_family(random.Random(N), N, Decimal))
        for size in (1, 2, 3):
            calls.clear()
            eval_explicit(tri, [Decimal(1.5 + k / 7) for k in range(size)])
            once = {"_point_factors": size, "_explicit_plan": N + 1}
            assert {name: k for (name, prec), k in calls.items() if prec == work} == once, size
            rerun = [(name, prec, k) for (name, prec), k in calls.items() if prec != work]
            assert len({prec for _, prec, _ in rerun}) <= 1, size
            assert all(k <= once[name] for name, _, k in rerun), size


@pytest.mark.parametrize("N", range(1, 17))
def test_explicit_forms_and_checks_each_z_free_factor_once(monkeypatch, N):
    # Counted over every table at every precision: each factor 1 - p q^i is
    # formed once, and a denominator's once guard-checked, for all degrees
    # and points; every series reads the family's own rows.  Each
    # degree's coefficient row and each point's basis row are built once,
    # and no z-dependent row lands on the family's table.
    formed, checked, built, plans, read = (collections.Counter(), collections.Counter(),
                                           collections.Counter(), [], [])
    factors, vanishing, series_terms = (PowerTable.factors, PowerTable.vanishing,
                                        para_racah.series_terms)

    def counted_factors(table, base, k):
        before = len(table._rows.get(base, ()))
        row = factors(table, base, k)
        formed.update((getcontext().prec, base, i) for i in range(before, len(row)))
        read.append((base, row))
        return row

    def counted_vanishing(table, base, k):
        before = table._clear.get(base, 0)
        first = vanishing(table, base, k)
        checked.update((getcontext().prec, base, i) for i in range(before, min(first + 1, k)))
        return first

    def counted_terms(numerator, denominator, table, argument, degree):
        start = len(read)
        terms = series_terms(numerator, denominator, table, argument, degree)
        plans.append((table, numerator + denominator, read[start:]))
        return terms

    monkeypatch.setattr(PowerTable, "factors", counted_factors)
    monkeypatch.setattr(PowerTable, "vanishing", counted_vanishing)
    monkeypatch.setattr(para_racah, "series_terms", counted_terms)
    for name in ("_explicit_plan", "_point_factors"):
        original = getattr(para_racah, name)
        monkeypatch.setattr(para_racah, name, lambda fam, arg, _name=name, _f=original: (
            built.update([(_name, getcontext().prec, arg)]) or _f(fam, arg)))
    with extended_precision(50):
        num = Decimal
        fam = ParaRacahFamily(a=num("0.9"), c=num("0.7"), alpha=num("0.3"), q=num("0.5"), N=N)
        zs = [num(1.15 + k / 8) for k in range(10)]
        point_keys = {p for z in zs for p in (fam.a * z, fam.a / z)}
        eval_explicit(tridiagonal(fam), zs)
        table, prec = fam.powers(), getcontext().prec
    assert built == collections.Counter(
        [("_explicit_plan", prec, n) for n in range(N + 1)]
        + [("_point_factors", prec, z) for z in zs])
    assert formed and set(formed.values()) == {1}
    assert point_keys <= {key for _, key, _ in formed}
    # At N = 1 every series has degree 0: there is nothing to check.
    assert set(checked.values()) == ({1} if N > 1 else set())
    assert not point_keys & (set(table._rows) | set(table._prefixes) | set(table._clear))
    assert plans and all(plan_table is table for plan_table, _, _ in plans)
    assert all({p for p, _ in rows} == set(params) for _, params, rows in plans)
    assert all(row is table.factors(p, 0) for _, _, rows in plans for p, row in rows)
