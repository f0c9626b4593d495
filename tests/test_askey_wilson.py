import cmath
import random

import mpmath
import pytest

from oracles.askey_wilson import (
    AskeyWilsonParams,
    RecurrenceSingularityError,
    explicit_eval,
    monic_eval,
    qdiff_residual,
    recurrence_ac,
    truncation_check,
)

GENERIC = AskeyWilsonParams(a=0.8, b=0.6, c=0.4, d=0.3, q=0.5)


def test_degree_zero_is_one():
    assert explicit_eval(GENERIC, 0, 1.3) == 1.0
    assert monic_eval(GENERIC, 0, 1.3) == 1.0


def test_degree_one_two_term_sum():
    p, z = GENERIC, 1.7
    hand = 1 + ((1 - 1 / p.q) * (1 - p.abcd)
                / ((1 - p.a * p.b) * (1 - p.a * p.c) * (1 - p.a * p.d) * (1 - p.q))
                * (1 - p.a * z) * (1 - p.a / z) * p.q)
    assert explicit_eval(p, 1, z) == pytest.approx(hand, rel=1e-14)


def test_monic_degree_one():
    p, z = GENERIC, 1.4
    x = (z + 1 / z) / 2
    A0, C0 = recurrence_ac(p, 0)
    assert monic_eval(p, 1, z) == pytest.approx(x - (p.a + 1 / p.a - A0 - C0) / 2,
                                                rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_explicit_equals_scaled_monic(n):
    # The monic normalization is 2^n over the product of A_0 .. A_{n-1}
    # (the product must start at A_0 for the identity to hold).
    p, z = GENERIC, 1.6
    prod = 1.0
    for m in range(n):
        prod *= recurrence_ac(p, m)[0]
    lhs = explicit_eval(p, n, z)
    rhs = monic_eval(p, n, z) * 2 ** n / prod
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_c0_is_zero():
    assert recurrence_ac(GENERIC, 0)[1] == 0.0


def test_recurrence_ac_against_extended_reevaluation():
    # Direct re-evaluation of the printed rational expressions at 50 digits.
    n = 2
    A, C = recurrence_ac(GENERIC, n)
    with mpmath.workdps(50):
        a, b, c, d, q = (mpmath.mpf(v) for v in ("0.8", "0.6", "0.4", "0.3", "0.5"))
        abcd = a * b * c * d
        A_hi = ((1 - a * b * q ** n) * (1 - a * c * q ** n) * (1 - a * d * q ** n)
                * (1 - abcd * q ** (n - 1))
                / (a * (1 - abcd * q ** (2 * n - 1)) * (1 - abcd * q ** (2 * n))))
        C_hi = (a * (1 - q ** n) * (1 - b * c * q ** (n - 1))
                * (1 - b * d * q ** (n - 1)) * (1 - c * d * q ** (n - 1))
                / ((1 - abcd * q ** (2 * n - 2)) * (1 - abcd * q ** (2 * n - 1))))
        assert A == pytest.approx(float(A_hi), rel=1e-13)
        assert C == pytest.approx(float(C_hi), rel=1e-13)


def test_singular_truncation_raises_near_half_band():
    j, q = 2, 0.5
    a, c = 0.9, 0.7
    p = AskeyWilsonParams(a=a, b=q ** -j / a, c=c, d=q ** -j / c, q=q)
    with pytest.raises(RecurrenceSingularityError) as err:
        for n in range(2 * j + 2):
            recurrence_ac(p, n)
    assert abs(err.value.n - (2 * j + 1) / 2) <= 1.0


def test_singular_tolerance_can_be_disabled():
    j, q = 2, 0.5
    with mpmath.workdps(60):
        a = mpmath.mpf("0.9")
        c = mpmath.mpf("0.7")
        qm = mpmath.mpf("0.5")
        t = mpmath.mpf("1e-25")
        p = AskeyWilsonParams(a=a, b=qm ** (-j + t) / a, c=c, d=qm ** (-j + t) / c, q=qm)
        A, C = recurrence_ac(p, 3, singular_tol=0.0)
        assert mpmath.isfinite(A) and mpmath.isfinite(C)


def test_monic_leading_coefficient_is_one():
    rng = random.Random(5)
    for n in (2, 4, 6):
        p = AskeyWilsonParams(a=rng.uniform(0.2, 0.9), b=rng.uniform(0.2, 0.9),
                              c=rng.uniform(0.2, 0.9), d=rng.uniform(0.2, 0.9), q=0.5)
        zs = [1.25 + 0.2 * k for k in range(n + 3)]
        xs = [(z + 1 / z) / 2 for z in zs]
        dd = [monic_eval(p, n, z) for z in zs]
        # Every n-th divided difference of a degree-n polynomial is its
        # leading coefficient.
        for k in range(1, n + 1):
            dd = [(dd[i + 1] - dd[i]) / (xs[i + k] - xs[i]) for i in range(len(dd) - 1)]
        assert dd == pytest.approx([1.0] * 3, abs=1e-9)


def test_qdiff_residual_degree_zero():
    res, scale = qdiff_residual(GENERIC, 0, 1.9)
    assert abs(res) <= 1e-14 * scale


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_qdiff_residual_random_points(n):
    rng = random.Random(n)
    p = AskeyWilsonParams(a=rng.uniform(0.2, 0.9), b=rng.uniform(0.2, 0.9),
                          c=rng.uniform(0.2, 0.9), d=rng.uniform(0.2, 0.9), q=0.45)
    for _ in range(5):
        z = cmath.exp(1j * rng.uniform(0.3, 2.8))
        res, scale = qdiff_residual(p, n, z)
        assert abs(res) <= 1e-10 * scale
    res, scale = qdiff_residual(p, n, 1.7)
    assert abs(res) <= 1e-10 * scale


def test_qdiff_rejects_pole():
    with pytest.raises(ValueError):
        qdiff_residual(GENERIC, 2, 1.0)


def test_truncation_check_modes():
    q = 0.5
    none_p = AskeyWilsonParams(a=0.3, b=0.3, c=0.3, d=0.3, q=q)
    assert truncation_check(none_p, 4) == "none"
    qr = AskeyWilsonParams(a=0.8, b=q ** -3 / 0.8, c=0.4, d=0.3, q=q)
    assert truncation_check(qr, 3) == "qracah"
    j = 1
    sing = AskeyWilsonParams(a=0.9, b=q ** -j / 0.9, c=0.7, d=q ** -j / 0.7, q=q)
    assert truncation_check(sing, 2 * j + 1) == "singular"


def test_truncation_check_requires_positive_N():
    with pytest.raises(ValueError):
        truncation_check(GENERIC, 0)
