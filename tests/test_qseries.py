from decimal import Decimal

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.qseries import SeriesSpec, phi_basis, series_value, terminating_series_eval
from qortho import qseries
from qortho.qseries import SingularSeriesError, qpochhammer
from qortho.scalars import extended_precision


def test_the_package_exports_the_terms_its_factors_and_its_error():
    # A sum's terms come from series_terms at a degree its caller states;
    # the spelled-out SeriesSpec is the test oracle's record.
    assert qseries.__all__ == ["SingularSeriesError", "series_terms", "qpochhammer", "PowerTable"]


def test_qpochhammer_empty_product():
    assert qpochhammer(0.37, 0.5, 0) == 1.0
    assert qpochhammer(123.0, 0.9, 0) == 1.0


def test_qpochhammer_vanishing_first_factor():
    assert qpochhammer(1.0, 0.7, 3) == 0.0


def test_qpochhammer_direct_product():
    # (1 - 0.5)(1 - 0.25)
    assert qpochhammer(0.5, 0.5, 2) == pytest.approx(0.375, rel=0, abs=0)


@pytest.mark.parametrize("bad_k", [-1, -7])
def test_qpochhammer_negative_length(bad_k):
    with pytest.raises(ValueError):
        qpochhammer(0.5, 0.5, bad_k)


def test_qpochhammer_rejects_infinite_length():
    with pytest.raises(ValueError):
        qpochhammer(0.5, 0.5, float("inf"))


@pytest.mark.parametrize("bad_q", [0.0, 1.0, 1.5, -0.2])
def test_nome_validation(bad_q):
    with pytest.raises(ValueError):
        qpochhammer(0.5, bad_q, 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    a=st.floats(min_value=-2, max_value=2),
    q=st.floats(min_value=0.05, max_value=0.95),
    k=st.integers(min_value=0, max_value=25),
)
def test_qpochhammer_recursion_step(a, q, k):
    lhs = qpochhammer(a, q, k + 1)
    prefix = qpochhammer(a, q, k)
    rhs = prefix * (1 - a * q ** k)
    # the appended factor can cancel; bound the noise by the prefix magnitude
    assert abs(lhs - rhs) <= 1e-12 * abs(prefix) * (1 + abs(a))


def test_phi_basis_degree_zero():
    assert phi_basis(0.4, 1.7, 0.5, 0) == 1.0


def test_phi_basis_at_unit_z():
    assert phi_basis(0.5, 1.0, 0.5, 1) == pytest.approx(0.25, abs=0)


def test_phi_basis_rejects_zero_z():
    with pytest.raises(ValueError):
        phi_basis(0.5, 0.0, 0.5, 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    a=st.floats(min_value=-1.5, max_value=1.5),
    z=st.floats(min_value=0.2, max_value=4.0),
    q=st.floats(min_value=0.1, max_value=0.9),
    k=st.integers(min_value=0, max_value=12),
)
def test_phi_basis_z_inversion_symmetry(a, z, q, k):
    lhs = phi_basis(a, z, q, k)
    rhs = phi_basis(a, 1 / z, q, k)
    # conditioning bound: either product can cancel to zero while carrying
    # rounding noise proportional to the product of factor magnitudes
    bound = 1.0
    for i in range(k):
        bound *= (1 + abs(a * z * q ** i)) * (1 + abs(a * q ** i / z))
    assert abs(lhs - rhs) <= 1e-12 * bound


def test_series_truncation_degree_zero_is_one():
    spec = SeriesSpec((0.2, 0.4), (0.3, 0.5), 0.5, 0.7, truncation=0)
    assert terminating_series_eval(spec) == 1.0


def test_series_matches_term_by_term_oracle():
    # 4phi3 with top parameter q^-2: independent summation at 50 digits.
    q = 0.55
    num = (q ** -2, 0.83, 0.31, -0.42)
    den = (0.67, 0.25, -0.38, q)
    spec = SeriesSpec(num, den, q, q, truncation=2)
    got = terminating_series_eval(spec)
    with mpmath.workdps(50):
        qm = mpmath.mpf("0.55")
        nm = (qm ** -2, mpmath.mpf("0.83"), mpmath.mpf("0.31"), mpmath.mpf("-0.42"))
        dm = (mpmath.mpf("0.67"), mpmath.mpf("0.25"), mpmath.mpf("-0.38"), qm)
        total = mpmath.mpf(0)
        for k in range(3):
            term = qm ** k
            for p in nm:
                for i in range(k):
                    term *= 1 - p * qm ** i
            for p in dm:
                for i in range(k):
                    term /= 1 - p * qm ** i
            total += term
        expected = float(total)
    # inputs differ at binary64 rounding only
    assert got == pytest.approx(expected, rel=1e-12)


def test_series_saalschutz_closed_form():
    # Balanced terminating series against the product-side identity:
    # sum(a, b, q^-n; c, a b q^(1-n)/c) at argument q equals
    # (c/a; q)_n (c/b; q)_n / ((c; q)_n (c/(a b); q)_n).
    q = 0.6
    a, b, c = 0.45, 0.3, 0.8
    for n in (1, 2, 3, 5):
        num = (a, b, q ** -n)
        den = (c, a * b * q ** (1 - n) / c, q)
        lhs = terminating_series_eval(SeriesSpec(num, den, q, q, truncation=n))
        rhs = (qpochhammer(c / a, q, n) * qpochhammer(c / b, q, n)
               / (qpochhammer(c, q, n) * qpochhammer(c / (a * b), q, n)))
        # the alternating sum carries a ~q^(-n(n+1)/2) condition number
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_series_singular_denominator_is_reported():
    q = 0.5
    # denominator parameter q^-2 hits a zero factor at index 2
    spec = SeriesSpec((q ** -5,), (q ** -2, q), q, q, truncation=5)
    with pytest.raises(SingularSeriesError) as err:
        terminating_series_eval(spec)
    assert err.value.index == 2


def test_series_raises_at_the_lowest_vanishing_index_as_the_reference():
    # q^-3 vanishes at index 3 and q^-2 at index 2: the lowest index wins,
    # although q^-3 comes first, as in the term-by-term reference.
    q = 0.5
    num, den = (q ** -5,), (q ** -3, q ** -2)
    with pytest.raises(SingularSeriesError) as err:
        terminating_series_eval(SeriesSpec(num, den, 0.5, 0.5, truncation=5))
    with pytest.raises(SingularSeriesError) as ref:
        series_value(num, den, q, 0.5, 5)
    assert (err.value.index, err.value.parameter) == (ref.value.index, ref.value.parameter)
    assert (err.value.index, err.value.parameter) == (2, q ** -2)


def test_an_infinite_denominator_parameter_is_an_overflow():
    # 1 - inf q^0 is within any relative guard of zero; it is an overflow of
    # the parameter, not a vanishing factor.
    with pytest.raises(OverflowError) as err:
        qseries.series_terms((), (float("inf"), 0.5), qseries.PowerTable(0.5), 0.5, 3)
    assert not isinstance(err.value, SingularSeriesError)


def test_double_vs_extended_ten_digits():
    # Regression set: truncation degrees up to 30, parameters in [-2, 2].
    import random

    rng = random.Random(42)
    for _ in range(25):
        k = rng.randint(1, 30)
        q = rng.uniform(0.2, 0.8)
        num = tuple(rng.uniform(-2, 2) for _ in range(3))
        den = tuple(rng.uniform(1.02, 2) for _ in range(2)) + (q,)
        arg = rng.uniform(-2, 2)
        lo = terminating_series_eval(SeriesSpec(num, den, q, arg, truncation=k))
        with extended_precision(50):
            hi = float(terminating_series_eval(SeriesSpec(
                tuple(map(Decimal, num)), tuple(map(Decimal, den)),
                Decimal(q), Decimal(arg), truncation=k)))
        assert abs(lo - hi) <= 1e-10 * max(1.0, abs(hi))
