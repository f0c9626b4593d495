"""Coefficient passes: every qpk row entry and every qpr truncation limit is
the per-entry formula's value bit for bit (tests/oracles/coefficients.py),
every qpr entry is the monic map of those limits bit for bit and agrees with
the closed-form b_n and u_n to its working precision, a table raises what
those formulas raise, and each table, deformed table and dual-Hahn step
family costs exactly one pass."""

import itertools
import random
from decimal import Decimal

import pytest

import support
from oracles import coefficients as oracle
from qortho import connections, para_krawtchouk, para_racah, verify
from qortho.para_krawtchouk import ParaKrawtchoukFamily
from qortho.para_racah import ParaRacahFamily
from qortho.recurrence import tridiagonal
from qortho.scalars import extended_precision

PRECISIONS = [(float, 15), (Decimal, 50)]


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
    b_formula, u_formula = ((oracle.qpr_b_from_limits, oracle.qpr_u_from_limits)
                            if kind == "qpr" else
                            (oracle.qpk_b_coefficient, oracle.qpk_u_coefficient))
    with extended_precision(digits):
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
    # to alpha = 1/2 and the four isospectral alphas.  Each qpr pass reads
    # one limit pass, over the degrees its b_n and u_n need.
    N, j = 12, 6
    passes = support.count_passes(monkeypatch)
    with extended_precision(50):
        fam = ParaRacahFamily(a=Decimal("0.9"), c=Decimal("0.7"),
                              alpha=Decimal("0.25"), q=Decimal("0.5"), N=N)
        checks = verify.run_suite("all", fam)
    assert all(chk.passed for chk in checks)
    full = (tuple(range(N + 1)), tuple(range(1, N + 1)))
    tables = [p for p in passes if p[0] != "limit" and p[2:] == full]
    deformed = [p for p in passes if p[0] != "limit" and p[2:] != full]
    assert [kind for kind, *_ in tables] == ["qpr"] * 2 + ["qpk"] + ["qpr"] * 3
    assert len({fam for _, fam, *_ in tables}) == 6
    assert len(deformed) == 5
    assert all(p[2:] == ((j, j + 1), (j, j + 1)) for p in deformed)
    read = []
    for i, (kind, fam, *rows) in enumerate(passes):
        if kind == "qpr":
            needed = tuple(range(N + 1)) if tuple(rows) == full else (j - 1, j, j + 1)
            assert passes[i + 1] == ("limit", fam, needed)
            read.append(passes[i + 1])
    # The dual-Hahn limit's six step families, one pass each.
    dual = [p for p in passes if p[0] == "limit" and p not in read]
    assert len(dual) == 6 and all(p[2] == tuple(range(1, N)) for p in dual)
    assert len(passes) == len(tables) + len(deformed) + len(read) + len(dual)


@pytest.mark.parametrize("N", [1, 2, 7, 16])
def test_dual_hahn_makes_one_limit_pass_per_step_family(monkeypatch, N):
    passes = support.count_passes(monkeypatch)
    limits = connections.dual_hahn_limit(0.75, N, range(N + 1))
    assert len(limits) == N + 1
    assert len(passes) == 6
    assert len({fam for _, fam, _ in passes}) == 6
    assert all(degrees == tuple(range(N + 1)) for *_, degrees in passes)


@pytest.mark.parametrize("N", [51, 53, 60])
@pytest.mark.parametrize("q", [0.01, 0.02, 0.2])
@pytest.mark.parametrize("a,c", [(0.5, 0.45), (0.9, 0.7)], ids=["a0.5", "a0.9"])
def test_double_tables_at_small_q_keep_their_digits(a, c, q, N):
    # The closed forms at 300 digits from the same binary inputs are the
    # reference.  A u_n formed as one quotient of products reached the
    # subnormal range here and kept about 11 digits, or divided by zero.
    tri = tridiagonal(ParaRacahFamily(a=a, c=c, alpha=0.3, q=q, N=N))
    with extended_precision(300):
        fam = ParaRacahFamily(a=Decimal(a), c=Decimal(c), alpha=Decimal(0.3),
                              q=Decimal(q), N=N)
        b = [oracle.qpr_b_coefficient(fam, n) for n in range(N + 1)]
        u = [oracle.qpr_u_coefficient(fam, n) for n in range(1, N + 1)]
        scale = max(abs(v) for v in b)
        assert all(abs(Decimal(x) - y) <= Decimal(2e-15) * scale for x, y in zip(tri.b, b))
        assert all(abs(Decimal(x) - y) <= Decimal(4e-15) * abs(y) for x, y in zip(tri.u, u))


def test_tables_agree_with_the_closed_forms_at_60_digits():
    rng = random.Random("closed-forms")
    with extended_precision(60):
        for _ in range(300):
            fam = ParaRacahFamily(a=Decimal(10 ** rng.uniform(-3, 1.5)),
                                  c=Decimal(10 ** rng.uniform(-3, 1.5)),
                                  alpha=Decimal(rng.uniform(0.05, 0.95)),
                                  q=Decimal(rng.uniform(0.005, 0.999)), N=rng.randint(1, 40))
            tri = tridiagonal(fam)
            b = [oracle.qpr_b_coefficient(fam, n) for n in range(fam.N + 1)]
            u = [oracle.qpr_u_coefficient(fam, n) for n in range(1, fam.N + 1)]
            scale = max(abs(v) for v in b)
            assert all(abs(x - y) <= Decimal(1e-50) * scale for x, y in zip(tri.b, b)), fam
            assert all(abs(x - y) <= Decimal(1e-50) * abs(y) for x, y in zip(tri.u, u)), fam


@pytest.mark.parametrize("a,c,alpha,q,N", [(27.7825, 0.2236, 0.9029, 0.9981, 39),
                                          (1.3298, 0.0215, 0.2738, 0.9978, 27),
                                          (0.9, 0.7, 0.3, 0.998, 40)])
def test_double_tables_near_q_1_keep_b_n_to_1e_14(a, c, alpha, q, N):
    # The splice limits share a factor 1 - q^-1; formed as 1 - 1/q it
    # carries the rounding of 1/q over 1 - q, about 500 ulps here, into
    # b_n (2.8e-14 to 3.4e-14 of max |b_n|), where (q - 1) / q carries one.
    tri = tridiagonal(ParaRacahFamily(a=a, c=c, alpha=alpha, q=q, N=N))
    with extended_precision(100):
        fam = ParaRacahFamily(a=Decimal(a), c=Decimal(c), alpha=Decimal(alpha),
                              q=Decimal(q), N=N)
        b = [oracle.qpr_b_coefficient(fam, n) for n in range(N + 1)]
        scale = max(abs(v) for v in b)
        assert all(abs(Decimal(x) - y) <= Decimal(1e-14) * scale for x, y in zip(tri.b, b))
