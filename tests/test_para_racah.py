import dataclasses
import math
import random

import mpmath
import pytest

import support
from qortho.para_racah import (
    DegenerateFamilyError,
    ParaRacahFamily,
    b_coefficient,
    char_poly_eval,
    char_poly_scale,
    eval_explicit,
    eval_recurrence,
    lattice,
    limit_recurrence_ac,
    positivity_check,
    qdiff_eigenvalue,
    qdiff_residual,
    u_coefficient,
    weights,
    weights_from_christoffel,
)
from qortho.recurrence import normalization_products, persymmetry_residual, tridiagonal

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


def test_parity_and_j():
    assert ODD.odd and ODD.j == 2
    assert not EVEN.odd and EVEN.j == 3


def test_mid_band_u_vanishes_when_strands_coincide():
    fam = ParaRacahFamily(a=0.8, c=0.8, alpha=0.4, q=0.5, N=5)
    assert u_coefficient(fam, fam.j + 1) == 0.0


def test_persymmetric_point_has_equal_mid_diagonals():
    fam = dataclasses.replace(ODD, alpha=0.5)
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
    A1, _ = limit_recurrence_ac(fam, 1)
    _, C2 = limit_recurrence_ac(fam, 2)
    assert u_coefficient(fam, 2) == pytest.approx(A1 * C2 / 4, rel=1e-13)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7])
def test_coefficients_against_substitution_oracle(N):
    # Tiny-t substitution into the raw parent coefficients at high precision.
    fam = ParaRacahFamily(a=0.9, c=0.7, alpha=0.3, q=0.5, N=N)
    with mpmath.workdps(support.ORACLE_DPS):
        hi = ParaRacahFamily(a=mpmath.mpf(0.9), c=mpmath.mpf(0.7),
                             alpha=mpmath.mpf(0.3), q=mpmath.mpf(0.5), N=N)
        for n in range(N + 1):
            b_or, u_or = support.oracle_recurrence_coefficients(hi, n)
            b_cf = b_coefficient(hi, n)
            assert abs(b_cf - b_or) <= abs(b_or) * mpmath.mpf("1e-40")
            if n >= 1:
                u_cf = u_coefficient(hi, n)
                assert abs(u_cf - u_or) <= abs(u_or) * mpmath.mpf("1e-40")
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
    assert eval_recurrence(ODD, 0, z) == 1.0
    assert eval_recurrence(ODD, 1, z) == pytest.approx(x - b_coefficient(ODD, 0))


def test_recurrence_rejects_bad_input():
    with pytest.raises(ValueError):
        eval_recurrence(ODD, ODD.N + 2, 1.5)
    with pytest.raises(ValueError):
        eval_recurrence(ODD, 2, 0.0)


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
        for _ in range(8):
            z = rng.uniform(1.1, 2.5)
            r = eval_recurrence(fam, n, z)
            e = eval_explicit(fam, n, z)
            assert abs(e - r) <= 1e-8 * max(abs(r), abs(e))


def test_explicit_degree_zero():
    assert eval_explicit(ODD, 0, 1.7) == pytest.approx(1.0, rel=1e-14)


def test_explicit_range_ends_at_top_degree():
    with pytest.raises(ValueError):
        eval_explicit(ODD, ODD.N + 1, 1.7)


# ---------------------------------------------------------------------------
# lattice and characteristic polynomial
# ---------------------------------------------------------------------------


def test_lattice_first_point():
    lw = lattice(ODD)
    assert lw.points[0] == pytest.approx((1 / 0.9 + 0.9) / 2, rel=1e-15)
    assert lw.z_points[0] == pytest.approx(0.9)


def test_lattice_sizes_by_parity():
    assert len(lattice(ODD).points) == ODD.N + 1
    even_lw = lattice(EVEN)
    assert len(even_lw.points) == EVEN.N + 1
    # even case: c-strand is one shorter, top entry belongs to the a-strand
    assert even_lw.z_points[-1] == pytest.approx(0.9 * 0.5 ** EVEN.j)


def test_degenerate_strands_coincide():
    fam = ParaRacahFamily(a=0.8, c=0.8, alpha=0.5, q=0.5, N=5)
    lw = lattice(fam)
    for s in range(fam.j + 1):
        assert lw.points[2 * s] == pytest.approx(lw.points[2 * s + 1], rel=1e-15)


@pytest.mark.parametrize("fam", [ODD, EVEN], ids=["odd", "even"])
def test_lattice_points_are_characteristic_roots(fam):
    lw = lattice(fam)
    for z in lw.z_points:
        val, peak = support.eval_recurrence_with_peak(
            b_coefficient, u_coefficient, fam, fam.N + 1, (z + 1 / z) / 2)
        assert abs(val) <= 1e-9 * peak
        assert abs(char_poly_eval(fam, z)) <= 1e-12


@pytest.mark.parametrize("fam", [ODD, EVEN], ids=["odd", "even"])
def test_char_poly_proportionality(fam):
    rng = random.Random(9)
    kappa = char_poly_scale(fam)
    for _ in range(10):
        z = rng.uniform(1.1, 2.8)
        r = eval_recurrence(fam, fam.N + 1, z)
        p = kappa * char_poly_eval(fam, z)
        assert abs(r - p) <= 1e-8 * max(abs(r), abs(p))


def test_degenerate_double_roots():
    # c = a doubles every root: the factored form has vanishing derivative
    # at the lattice, probed with a central difference in z.
    fam = ParaRacahFamily(a=0.8, c=0.8, alpha=0.5, q=0.5, N=5)
    lw = lattice(fam)
    for z in lw.z_points[::2]:
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
    assert lw.positive_measure


@pytest.mark.parametrize("fam", [ODD, EVEN], ids=["odd", "even"])
def test_gram_orthogonality(fam):
    lw = weights(fam)
    vals = [[eval_recurrence(fam, n, z) for z in lw.z_points]
            for n in range(fam.N + 1)]
    for n in range(fam.N + 1):
        for m in range(n + 1):
            g = sum(w * vals[n][s] * vals[m][s] for s, w in enumerate(lw.weights))
            if n == m:
                assert abs(g - lw.h[n]) <= 1e-8 * abs(lw.h[n])
            else:
                assert abs(g) <= 1e-8 * math.sqrt(lw.h[n] * lw.h[m])


@pytest.mark.parametrize("fam", [ODD, EVEN], ids=["odd", "even"])
def test_christoffel_route_matches_closed_forms(fam):
    lw = weights(fam)
    cw = weights_from_christoffel(fam)
    for w_closed, w_chr in zip(lw.weights, cw.weights):
        assert abs(w_closed - w_chr) <= 1e-7 * abs(w_closed)
    assert cw.positive_measure


def test_weights_refuse_degenerate_spectrum():
    fam = ParaRacahFamily(a=0.8, c=0.8, alpha=0.5, q=0.5, N=5)
    with pytest.raises(DegenerateFamilyError):
        weights(fam)
    with pytest.raises(DegenerateFamilyError):
        weights_from_christoffel(fam)


def test_signed_measure_is_flagged_not_raised():
    fam = ParaRacahFamily(a=0.9, c=0.2, alpha=0.5, q=0.5, N=4)
    assert not positivity_check(fam).u_positive
    lw = weights(fam)
    assert lw.positive_measure is False


def test_beta_factor_profile():
    for alpha in (0.25, 0.75):
        fam = dataclasses.replace(ODD, alpha=alpha)
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
        lw = lattice(fam)
        root = math.sqrt(normalization_products(fam)[-1])
        for s, z in enumerate(lw.z_points):
            expected = sigma * (-1) ** (fam.N + s) * root
            assert eval_recurrence(fam, fam.N, z) == pytest.approx(expected, rel=1e-8)


def test_k_norm_is_square_root_of_product_odd_case():
    lw = weights(dataclasses.replace(ODD, alpha=0.5))
    h = normalization_products(dataclasses.replace(ODD, alpha=0.5))
    assert abs(lw.k_norm) == pytest.approx(math.sqrt(h[-1]), rel=1e-12)


def test_analytic_derivative_matches_finite_differences():
    # Product-rule derivative of the monic characteristic polynomial vs a
    # 5-point central difference through the z-parametrization.
    for fam in (ODD, EVEN):
        lw = lattice(fam)
        pts = lw.points
        for s, z in enumerate(lw.z_points):
            analytic = 1.0
            for k, xk in enumerate(pts):
                if k != s:
                    analytic *= pts[s] - xk
            h = 1e-4 * z
            vals = [eval_recurrence(fam, fam.N + 1, z + m * h) for m in (-2, -1, 1, 2)]
            dz = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
            fd = dz * 2 * z ** 2 / (z ** 2 - 1)
            assert fd == pytest.approx(analytic, rel=1e-6)


# ---------------------------------------------------------------------------
# q-difference operator
# ---------------------------------------------------------------------------


def test_qdiff_degree_zero_annihilated():
    res, scale = qdiff_residual(ODD, 0, 2.2)
    assert abs(res) <= 1e-14 * scale


@pytest.mark.parametrize("fam", [ODD, EVEN], ids=["odd", "even"])
def test_qdiff_residual_small(fam):
    rng = random.Random(fam.N)
    for n in range(fam.N + 1):
        for _ in range(5):
            z = rng.uniform(2.0, 3.0)
            res, scale = qdiff_residual(fam, n, z)
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
    rep = positivity_check(ParaRacahFamily(a=0.9, c=0.7, alpha=0.3, q=0.5, N=4))
    assert rep.conditions_ok and rep.u_positive


def test_positivity_check_flags_ratio_violation():
    q = 0.5
    rep = positivity_check(ParaRacahFamily(a=0.2, c=0.8, alpha=0.5, q=q, N=5))
    assert not rep.conditions_ok
    assert "q < a/c < 1/q" in rep.failed_conditions
    assert not rep.u_positive


def test_positivity_check_interior_point():
    rep = positivity_check(ParaRacahFamily(a=0.8, c=0.6, alpha=0.5, q=0.4, N=6))
    assert rep.conditions_ok and rep.u_positive


def test_even_case_conditions_are_not_sharp():
    # The printed inequalities admit a < c for even N, but the direct u-scan
    # rejects it: the two verdicts intentionally disagree there.
    rep = positivity_check(ParaRacahFamily(a=0.7, c=0.9, alpha=0.5, q=0.5, N=4))
    assert rep.conditions_ok
    assert not rep.u_positive
