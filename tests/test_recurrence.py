"""The recurrence engine reproduces the reference loop bit for bit.

``support.eval_recurrence_with_peak`` keeps the plain forward loop over the
coefficient functions; every family's evaluation must agree with it exactly
(``==``), in binary64 and at 50 digits, so routing callers through the
shared table changes no computed value.  A table deformed to another alpha
is the table built at that alpha, entry for entry.
"""

from decimal import Decimal

import pytest

import support
from oracles import askey_wilson
from oracles.connections import qracah_monic_eval
from qortho import connections, para_krawtchouk, para_racah
from qortho.recurrence import monic_values, tridiagonal
from qortho.scalars import extended_precision

N_VALUES = list(range(1, 10)) + [16]


def _qpr(N, num):
    fam = support.family("qpr", N, num, a="0.9", c="0.7", alpha="0.3", q="0.5")
    return fam, [num("1.7"), num("2.3"), num("-1.25")]


def _qpk(N, num):
    fam = support.family("qpk", N, num, Delta="1.3", alpha="0.35", q="0.5")
    return fam, [num("0.8"), num("1.1"), num("0.3")]


def _check_family(kind, N, num):
    if kind == "qpr":
        fam, zs = _qpr(N, num)
        xs = [(z + 1 / z) / 2 for z in zs]
    else:
        fam, xs = _qpk(N, num)
        zs = xs
    module = para_racah if kind == "qpr" else para_krawtchouk
    tri = tridiagonal(fam)
    for z, x in zip(zs, xs):
        swept = tri.values(x)
        assert len(swept) == N + 2
        for n in range(N + 2):
            ref, _ = support.eval_recurrence_with_peak(
                module.b_coefficient, module.u_coefficient, fam, n, x)
            assert module.eval_recurrence(tri, n, z) == ref, (kind, N, n, z)
            assert swept[n] == ref, (kind, N, n, z)


@pytest.mark.parametrize("N", N_VALUES)
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
def test_engine_matches_reference_loop_double(kind, N):
    _check_family(kind, N, float)


@pytest.mark.parametrize("N", N_VALUES)
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
def test_engine_matches_reference_loop_extended(kind, N):
    with extended_precision(50):
        _check_family(kind, N, Decimal)


def _bits(v):
    return type(v), v.as_tuple() if isinstance(v, Decimal) else v.hex()


@pytest.mark.parametrize("N", range(1, 17))
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
def test_deformed_table_is_the_table_built_at_that_alpha(kind, N):
    # The splice n = j, j+1 reaches both ends of the table at N = 1 and 2;
    # fam.alpha itself and alpha = 1/2 take the shortcut that returns the
    # table unchanged.
    for num, digits in ((float, 15), (Decimal, 50)):
        with extended_precision(digits):
            for fam_alpha in ("0.3", "0.5"):
                fam = (_qpr if kind == "qpr" else _qpk)(N, num)[0]
                fam = fam.replace(alpha=num(fam_alpha))
                tri = tridiagonal(fam)
                for al in (*map(num, (0.1, 0.3, 0.5, 0.7, 0.9)), fam.alpha):
                    got, ref = tri.at_alpha(al), tridiagonal(fam.replace(alpha=al))
                    assert got.family == ref.family
                    assert got.positive == ref.positive
                    assert list(map(_bits, got.b + got.u)) == list(map(_bits, ref.b + ref.u)), (
                        num, fam_alpha, al)


def test_table_rows_and_normalization_products():
    fam, _ = _qpr(7, float)
    tri = tridiagonal(fam)
    assert tri.b == tuple(para_racah.b_coefficient(fam, n) for n in range(8))
    assert tri.u == tuple(para_racah.u_coefficient(fam, n) for n in range(1, 8))
    h = 1.0
    for n in range(1, 8):
        h = h * tri.u[n - 1]
        assert tri.h[n] == h
    assert tri.h[0] == 1.0


@pytest.mark.parametrize("num,digits", [(float, 15), (Decimal, 50)], ids=["float-15", "mpf-50"])
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
def test_p0_and_h0_are_the_tables_own_one(kind, num, digits):
    # P_0 at every degree and at any point, and h_0, are the table's one,
    # in b_0's type: 1.0 in binary64, a Decimal 1 at 50 digits.
    with extended_precision(digits):
        fam, _ = (_qpr if kind == "qpr" else _qpk)(5, num)
        tri = tridiagonal(fam)
        one = type(tri.b[0])
        for x in (num("0.37"), tri.b[1], num(0)):
            for n in (0, 1, 5, None):
                p0 = tri.values(x, n)[0]
                assert type(p0) is one and p0 == 1, (x, n)
        assert type(tri.h[0]) is one and tri.h[0] == 1


def test_monic_values_first_step_is_exact():
    assert monic_values([], [], 0.3) == [1.0]
    assert monic_values([0.25], [0.0], 0.3) == [1.0, 0.3 - 0.25]


def test_askey_wilson_monic_matches_reference_loop():
    p = askey_wilson.AskeyWilsonParams(a=0.8, b=0.6, c=0.4, d=0.3, q=0.5)

    def b_coefficient(p, m):
        A, C = askey_wilson.recurrence_ac(p, m)
        return (p.a + 1 / p.a - A - C) / 2

    def u_coefficient(p, m):
        return (askey_wilson.recurrence_ac(p, m - 1)[0]
                * askey_wilson.recurrence_ac(p, m)[1] / 4)

    z = 1.6
    for n in range(9):
        ref, _ = support.eval_recurrence_with_peak(
            b_coefficient, u_coefficient, p, n, (z + 1 / z) / 2)
        assert askey_wilson.monic_eval(p, n, z) == ref


def test_qracah_monic_matches_reference_loop():
    p = connections.single_lattice_qracah_params(0.8, 0.49, 6)

    def b_coefficient(p, m):
        A, C = connections.qracah_recurrence_ac(p, m)
        return 1 + p.gamma * p.delta * p.q - A - C

    def u_coefficient(p, m):
        return (connections.qracah_recurrence_ac(p, m - 1)[0]
                * connections.qracah_recurrence_ac(p, m)[1])

    for n in range(7):
        ref, _ = support.eval_recurrence_with_peak(b_coefficient, u_coefficient, p, n, 1.9)
        assert qracah_monic_eval(p, n, 1.9) == ref
