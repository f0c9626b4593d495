"""Coefficient passes: every row entry is the per-entry formula's value bit
for bit (tests/oracles/coefficients.py), a table raises what those formulas,
taken b row first, raise, and each table, deformed table and dual-Hahn step
family costs exactly one pass."""

import itertools
import random

import mpmath
import pytest

import support
from oracles import coefficients as oracle
from qortho import connections, para_krawtchouk, para_racah, verify
from qortho.para_krawtchouk import ParaKrawtchoukFamily
from qortho.para_racah import ParaRacahFamily
from qortho.recurrence import tridiagonal

PRECISIONS = [(float, 15), (mpmath.mpf, 50)]


def _same(value, reference) -> bool:
    return value == reference and type(value) is type(reference)


def _families(kind, N, num):
    """Three seeded families of one kind, inside and outside the positivity
    region, each field of type ``num``."""
    rng = random.Random("%s:%d:%s" % (kind, N, num.__name__))
    for _ in range(3):
        q, alpha = num(rng.uniform(0.1, 0.95)), num(rng.choice([0.25, 0.3, 0.5, 0.75]))
        if kind == "qpr":
            yield ParaRacahFamily(a=num(rng.uniform(0.2, 1.6)), c=num(rng.uniform(0.2, 1.6)),
                                  alpha=alpha, q=q, N=N)
        else:
            yield ParaKrawtchoukFamily(Delta=num(rng.uniform(0.3, 2.5)), alpha=alpha, q=q, N=N)


@pytest.mark.parametrize("N", range(1, 31))
@pytest.mark.parametrize("num,digits", PRECISIONS, ids=["double", "mpf"])
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
def test_rows_are_the_per_entry_formulas_bit_for_bit(kind, num, digits, N):
    module = para_racah if kind == "qpr" else para_krawtchouk
    b_formula, u_formula = ((oracle.qpr_b_coefficient, oracle.qpr_u_coefficient)
                            if kind == "qpr" else
                            (oracle.qpk_b_coefficient, oracle.qpk_u_coefficient))
    with mpmath.workdps(digits):
        for fam in _families(kind, N, num):
            tri = tridiagonal(fam)
            b, u = oracle.coefficient_table(fam)
            assert all(map(_same, tri.b + tri.u, b + u))
            assert len(tri.b) == len(b) and len(tri.u) == len(u)
            # One-entry reads, u_{N+1} among them, are the same pass.
            for n in range(N + 1):
                assert _same(module.b_coefficient(fam, n), b_formula(fam, n))
            for n in range(1, N + 2):
                assert _same(module.u_coefficient(fam, n), u_formula(fam, n))
            # A deformed table recomputes b and u at n = j, j+1 only.
            moved = tri.at_alpha(num(0.9))
            j = fam.j
            assert _same(moved.b[j], b_formula(moved.family, j))
            assert _same(moved.b[j + 1], b_formula(moved.family, j + 1))
            for n in (j, j + 1):
                if n:
                    assert _same(moved.u[n - 1], u_formula(moved.family, n))
            if kind == "qpk":
                continue
            rows = para_racah.limit_rows(fam, range(N + 2))
            for n, (A, C) in enumerate(rows):
                A_ref, C_ref = oracle.limit_recurrence_ac(fam, n)
                assert _same(A, A_ref) and _same(C, C_ref)
                assert para_racah.limit_rows(fam, (n,))[0] == (A_ref, C_ref)
            p = connections.single_lattice_qracah_params(fam.a, fam.q, N)
            for n in range(N + 1):
                assert all(map(_same, connections.qracah_recurrence_ac(p, n),
                               oracle.qracah_recurrence_ac(p, n)))


def _outcome(compute):
    """The values ``compute`` returns, or the type and text of what it raises."""
    try:
        return compute()
    except ArithmeticError as exc:
        return type(exc), str(exc)


# Binary64 families whose powers of q, products a c or squared differences
# leave the double range: denominators that underflow to 0 and negative
# powers of q that overflow, alone and together.
EXTREME = [1e-300, 1e-200, 1e-160, 1e-100, 0.5, 1e100, 1e160, 1e200]


def _extreme_families():
    for N in range(1, 9):
        for q in (1e-300, 1e-200, 1e-100, 1e-20, 0.5):
            for a, c in itertools.product(EXTREME, repeat=2):
                yield ParaRacahFamily(a=a, c=c, alpha=0.3, q=q, N=N)
            for Delta in EXTREME:
                yield ParaKrawtchoukFamily(Delta=Delta, alpha=0.3, q=q, N=N)


def test_tables_raise_what_the_per_entry_formulas_raise():
    raised = set()
    for fam in _extreme_families():
        expected = _outcome(lambda: oracle.coefficient_table(fam))
        got = _outcome(lambda: (lambda t: (list(t.b), list(t.u)))(tridiagonal(fam)))
        assert repr(got) == repr(expected), fam
        if isinstance(expected[0], type):
            raised.add((type(fam).__name__, expected[0]))
        if isinstance(fam, ParaRacahFamily):
            degrees = range(fam.N + 2)
            expected = _outcome(lambda: [oracle.limit_recurrence_ac(fam, n) for n in degrees])
            got = _outcome(lambda: para_racah.limit_rows(fam, degrees))
            assert repr(got) == repr(expected), fam
            if isinstance(expected[0], type):
                raised.add(("limit", expected[0]))
    # The grid reaches every kind of refusal it is there to pin.
    assert raised >= {("ParaRacahFamily", ZeroDivisionError),
                      ("ParaRacahFamily", OverflowError),
                      ("ParaKrawtchoukFamily", ZeroDivisionError),
                      ("ParaKrawtchoukFamily", OverflowError),
                      ("limit", ZeroDivisionError), ("limit", OverflowError)}


def test_a_verify_run_makes_one_pass_per_table(monkeypatch):
    # qpr N = 12 at 50 digits builds six tables (its own, the q-Racah single
    # lattice, three theta tables and their qpk target) and deforms its own
    # to alpha = 1/2 and the four isospectral alphas.
    N, j = 12, 6
    passes = support.count_passes(monkeypatch)
    with mpmath.workdps(50):
        fam = ParaRacahFamily(a=mpmath.mpf("0.9"), c=mpmath.mpf("0.7"),
                              alpha=mpmath.mpf("0.25"), q=mpmath.mpf("0.5"), N=N)
        checks = verify.run_suite("all", fam)
    assert all(chk.passed for chk in checks)
    full = (tuple(range(N + 1)), tuple(range(1, N + 1)))
    tables = [p for p in passes if p[0] != "limit" and p[2:] == full]
    deformed = [p for p in passes if p[0] != "limit" and p[2:] != full]
    limits = [p for p in passes if p[0] == "limit"]
    assert [kind for kind, *_ in tables] == ["qpr"] * 2 + ["qpk"] + ["qpr"] * 3
    assert len({fam for _, fam, *_ in tables}) == 6
    assert len(deformed) == 5
    assert all(p[2:] == ((j, j + 1), (j, j + 1)) for p in deformed)
    assert len(limits) == 6 and all(p[2] == tuple(range(1, N)) for p in limits)
    assert len(passes) == len(tables) + len(deformed) + len(limits)


@pytest.mark.parametrize("N", [1, 2, 7, 16])
def test_dual_hahn_makes_one_limit_pass_per_step_family(monkeypatch, N):
    passes = support.count_passes(monkeypatch)
    limits = connections.dual_hahn_limit(0.75, N, range(N + 1))
    assert len(limits) == N + 1
    assert len(passes) == 6
    assert len({fam for _, fam, _ in passes}) == 6
    assert all(degrees == tuple(range(N + 1)) for *_, degrees in passes)
