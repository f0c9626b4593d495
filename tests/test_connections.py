import random
from decimal import Decimal

import pytest

import support
from oracles.connections import qracah_monic_eval, single_lattice_points
from qortho import connections, para_racah, verify
from qortho.connections import (
    dual_hahn_limit,
    qracah_recurrence_ac,
    single_lattice_family,
    single_lattice_qracah_params,
    verify_qracah_identity,
)
from qortho.recurrence import tridiagonal
from qortho.scalars import extended_precision


def test_qracah_monic_trivial_degrees():
    p = single_lattice_qracah_params(0.8, 0.49, 5)
    assert qracah_monic_eval(p, 0, 0.7) == 1.0
    A0, C0 = qracah_recurrence_ac(p, 0)
    b0 = 1 + p.gamma * p.delta * p.q - A0 - C0
    y = 0.7
    assert qracah_monic_eval(p, 1, y) == pytest.approx(y - b0, rel=1e-13)


def test_identity_trivial_at_degree_zero():
    fam = single_lattice_family(0.8, 0.49, 4)
    p = single_lattice_qracah_params(0.8, 0.49, 4)
    z = 1.6
    x = (z + 1 / z) / 2
    assert para_racah.eval_recurrence(tridiagonal(fam), 0, z) == 1.0
    assert qracah_monic_eval(p, 0, 2 * 0.8 * x) == 1.0


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("a", [0.5, 0.7, 0.9])
def test_identity_residual(N, a):
    rng = random.Random(1000 * N + int(10 * a))
    for _ in range(5):
        z = rng.uniform(1.1, 2.4)
        assert verify_qracah_identity(a, 0.49, N, [z]) <= 1e-8


def test_lattice_collapses_to_single_grid():
    for N in (5, 6):
        fam = single_lattice_family(0.8, 0.49, N)
        bi = para_racah.lattice(fam)
        single = single_lattice_points(0.8, 0.49, N)
        for x_bi, x_single in zip(bi, single):
            assert x_bi == pytest.approx(x_single, rel=1e-14)


def test_dual_hahn_targets_vanish_at_band_edges():
    [(_, _, t_a, t_c)] = dual_hahn_limit(0.6, 4, [0])
    assert t_c == 0.0
    [(_, _, t_a, _)] = dual_hahn_limit(0.6, 4, [4])
    assert t_a == 0.0


@pytest.mark.parametrize("a_exp", [0.4, 0.6])
def test_dual_hahn_limit_matches_targets(a_exp):
    for lim_a, lim_c, t_a, t_c in dual_hahn_limit(a_exp, 4, (1, 2, 3)):
        assert abs(lim_a - t_a) <= 1e-4 * max(1.0, abs(t_a))
        assert abs(lim_c - t_c) <= 1e-4 * max(1.0, abs(t_c))


def test_dual_hahn_also_converges_for_odd_band():
    [(lim_a, lim_c, t_a, t_c)] = dual_hahn_limit(0.5, 5, [2])
    assert abs(lim_a - t_a) <= 1e-4 * max(1.0, abs(t_a))
    assert abs(lim_c - t_c) <= 1e-4 * max(1.0, abs(t_c))


def test_dual_hahn_rejects_out_of_range_degree():
    with pytest.raises(ValueError):
        dual_hahn_limit(0.5, 4, [5])


@pytest.mark.parametrize("degrees", [[], [2], range(6)])
def test_dual_hahn_builds_its_step_families_once_per_call(monkeypatch, degrees):
    built = support.count_family_builds(monkeypatch, connections)
    assert len(dual_hahn_limit(0.4, 5, degrees)) == len(degrees)
    assert len(built) == (6 if degrees else 0)


@pytest.mark.parametrize("N", range(1, 17))
def test_dual_hahn_matches_the_per_degree_reference(N):
    rng = random.Random(N)
    a_exp = rng.uniform(0.05, 1.5)
    expected = [support.dual_hahn_limit_reference(a_exp, N, n) for n in range(N + 1)]
    assert dual_hahn_limit(a_exp, N, range(N + 1)) == expected
    with extended_precision(50):
        assert dual_hahn_limit(a_exp, N, range(N + 1)) == expected


@pytest.mark.parametrize("a_exp", [-1328.77, -0.5, 0.0, 8.0, 15.3, 692.8, 1608.63])
def test_dual_hahn_reads_its_first_step_off_the_exponent(a_exp):
    # The reference finds the first k >= 8 with 2^k > 32 |e| by counting up.
    N = 5
    expected = [support.dual_hahn_limit_reference(a_exp, N, n) for n in range(N + 1)]
    assert dual_hahn_limit(a_exp, N, range(N + 1)) == expected


# Exponents on both sides of 0, across the verify-ext range (|e| <= 15.3),
# and large ones that a fixed k = 6..16 schedule could not certify.
SWEEP_EXPONENTS = [1e-4, -1e-4, 0.03, 1.0, 8.0, 15.3, 100.0, 692.8, 1608.63, -1328.77, 1e6]


@pytest.mark.parametrize("a_exp", SWEEP_EXPONENTS)
def test_dual_hahn_limit_certifies_every_exponent(a_exp):
    for N in (2, 5, 16):
        for lim_a, lim_c, t_a, t_c in dual_hahn_limit(a_exp, N, range(N + 1)):
            assert abs(lim_a - t_a) <= 1e-12 * max(1.0, abs(t_a)), (N, lim_a, t_a)
            assert abs(lim_c - t_c) <= 1e-12 * max(1.0, abs(t_c)), (N, lim_c, t_c)


def test_dual_hahn_contraction_bound_is_no_looser_than_its_tolerance():
    assert 10.0 ** -connections.CONTRACTION_DIGITS <= verify.TOL_DUALHAHN


def test_limit_rows_that_do_not_contract_raise(monkeypatch):
    # Each step's A_n alternates in sign: no Richardson level settles.
    passes = []

    def alternating(fam, degrees):
        passes.append(fam)
        return [(Decimal(-1) ** len(passes), Decimal(1))] * len(degrees)
    monkeypatch.setattr(connections, "limit_rows", alternating)
    with pytest.raises(connections.ExtrapolationError, match="not contracting"):
        dual_hahn_limit(0.4, 5, [2])
    assert len(passes) == connections.DUAL_HAHN_STEPS


@pytest.mark.parametrize("a_exp", ["8.2e31", "-1e400", "1e400"])
def test_dual_hahn_refuses_steps_finer_than_its_digits(monkeypatch, a_exp):
    # From |e| = 2^106 (8.11e31) on, the finest step would keep fewer than
    # 53 bits of 1 - sqrt(q) at 50 digits, and no family is built.
    built = support.count_family_builds(monkeypatch, connections)
    with extended_precision(50):
        exponent = Decimal(a_exp)
    with pytest.raises(connections.ExtrapolationError, match="not resolved at 50 digits"):
        dual_hahn_limit(exponent, 5, [2])
    assert built == []


@pytest.mark.parametrize("a_exp", [2 ** 106 - 1, -(2 ** 106 - 1), "8.1e31"])
def test_dual_hahn_resolves_exponents_just_below_the_bound(a_exp):
    # Below |e| = 2^106 the finest step keeps 53 bits above 10^-51.  The
    # bound is read off the exponent exactly: rounded to the default
    # context's 28 digits, 2^106 itself would fall below it.
    exponent = Decimal(a_exp)
    N = 5
    expected = [support.dual_hahn_limit_reference(exponent, N, n) for n in range(N + 1)]
    assert dual_hahn_limit(exponent, N, range(N + 1)) == expected
    with pytest.raises(connections.ExtrapolationError, match="not resolved at 50 digits"):
        dual_hahn_limit(Decimal(2 ** 106), N, [2])


def test_richardson_levels():
    # v_k = 1 + 2^-k + 4^-k: each level removes one power exactly.
    with extended_precision(30):
        values = [1 + Decimal(2) ** -k + Decimal(4) ** -k for k in range(3)]
        estimates = connections.richardson(values, 2)
    assert estimates[0] == values[-1]
    assert len(estimates) == 3
    assert estimates[-1] == 1


def test_truncation_of_matched_qracah_parameters():
    # alpha*beta ... beta*delta*q = p^{-N} makes A_N vanish for both parities.
    for N in (5, 6):
        p = single_lattice_qracah_params(0.8, 0.49, N)
        A_N, _ = qracah_recurrence_ac(p, N)
        assert abs(A_N) <= 1e-12


@pytest.mark.parametrize("N", [5, 6])
def test_dual_hahn_limit_converts_only_its_float_exponent(N):
    # The step families' alpha is typed by q, and the float exponent is
    # converted once, not once per family.
    with support.float_conversions() as floats:
        dual_hahn_limit(0.3, N, range(1, N))
    assert floats == [(0.3, "connections.dual_hahn_limit")]


@pytest.mark.parametrize("a_exp", [0.0, -0.3, -1328.77, 1608.63, "0", "-0.3", "1e400"])
def test_dual_hahn_reads_its_first_step_without_converting_again(a_exp):
    # A float exponent is converted once; a Decimal one, beyond the binary64
    # range too, is read as it is.
    exponent = a_exp
    if isinstance(a_exp, str):
        with extended_precision(50):
            exponent = Decimal(a_exp)
    with support.float_conversions() as floats:
        try:
            dual_hahn_limit(exponent, 5, range(1, 5))
        except connections.ExtrapolationError:
            assert a_exp == "1e400"
    assert floats == ([] if isinstance(a_exp, str) else
                      [(a_exp, "connections.dual_hahn_limit")])
