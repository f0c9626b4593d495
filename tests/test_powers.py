"""The per-family power tables: each q-power and each (base; q)_k prefix of
a z-free base is computed once per family and working precision, and every
value read from a table is the one the direct computation gives, bit for
bit.  The recurrence loop with its first two steps written out is the plain
loop's, bit for bit, at every kind of point.  The series sums, the explicit
dot product, the Richardson table and the Gram errors are their plain
reference loops', bit for bit, in binary64 (NaN, infinite and complex
operands among them) and at 20, 50 and 120 Decimal digits."""

import ast
import math
import random
from decimal import Decimal, getcontext
from pathlib import Path

import pytest

import support
from oracles.qseries import SeriesSpec
from qortho import connections, para_krawtchouk, para_racah, qseries, recurrence, verify
from qortho.qseries import PowerTable, qpochhammer, series_terms
from qortho.recurrence import monic_values, tridiagonal
from qortho.scalars import extended_precision, max_keep_nan, sqrt, typed_float

SRC = Path(__file__).resolve().parents[1] / "src" / "qortho"

QPR = dict(a="0.9", c="0.7", alpha="0.3", q="0.5")
QPK = dict(Delta="1.3", alpha="0.35", q="0.5")

# (scalar type, working digits): binary64, and Decimal at three precisions,
# so a loop that read the precision anywhere but the context would show.
PRECISIONS = [pytest.param(float, 50, id="double"), pytest.param(Decimal, 20, id="mpf20"),
              pytest.param(Decimal, 50, id="mpf"), pytest.param(Decimal, 120, id="mpf120")]


def _family(kind, N, num):
    return support.family(kind, N, num, **(QPR if kind == "qpr" else QPK))


def _bits(v):
    """A value's type and exact bits: NaN, -0.0 and the float/Decimal types count."""
    if isinstance(v, (tuple, list)):
        return [_bits(x) for x in v]
    if isinstance(v, float):
        return ("float", v.hex())
    if isinstance(v, complex):
        return ("complex", v.real.hex(), v.imag.hex())
    if isinstance(v, Decimal):
        return ("decimal", str(v))
    return (type(v).__name__, repr(v))


# The loops as they were before the tables: the references.


def reference_monic_values(b, u, x):
    # P_0 is the table's one, as in the library: 1 in b_0's type.
    cur = type(b[0])(1)
    prev = 0 * cur
    out = [cur]
    for bm, um in zip(b, u):
        cur, prev = (x - bm) * cur - um * prev, cur
        out.append(cur)
    return out


def reference_qpochhammer(a, q, k):
    out = q ** 0
    qpow = q ** 0
    for _ in range(k):
        out = out * (1 - a * qpow)
        qpow = qpow * q
    return out


def reference_running(q, k):
    """The first k running powers q^0, q^0 q, q^0 q q, ..."""
    running = [q ** 0]
    while len(running) < k:
        running.append(running[-1] * q)
    return running[:k]


def reference_terms(numerator, denominator, q, argument, degree):
    """The terms t_0..t_degree of sum_k prod (num; q)_k / prod (den; q)_k arg^k."""
    qpows = reference_running(q, degree)
    term = argument ** 0
    terms = [term]
    for k in range(degree):
        for p in numerator:
            term = term * (1 - p * qpows[k])
        for p in denominator:
            term = term / (1 - p * qpows[k])
        term = term * argument
        terms.append(term)
    return terms


def reference_series_sum(numerator, denominator, q, argument, degree):
    plain = any(isinstance(v, Decimal) for v in (q, argument) + numerator + denominator)
    total = comp = magnitude = 0 * q
    for term in reference_terms(numerator, denominator, q, argument, degree):
        magnitude = magnitude + abs(term)
        if plain:
            total = total + term
        else:
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
    return total, magnitude


def reference_basis(q, length, bases):
    """phi_0..phi_(length-1), phi_k the product of (base; q)_k over the
    bases: each step multiplies in each base's factor 1 - base q^k."""
    basis = [q ** 0]
    for qpow in reference_running(q, length - 1):
        value = basis[-1]
        for base in bases:
            value = value * (1 - base * qpow)
        basis.append(value)
    return basis


def reference_dot(row, basis):
    """(sum c basis[k], sum |c basis[k]|) over the (k, c) of a coefficient
    row, each added in order from the first product."""
    products = [c * basis[k] for k, c in row]
    total, magnitude = products[0], abs(products[0])
    for product in products[1:]:
        total = total + product
        magnitude = magnitude + abs(product)
    return total, magnitude


def reference_richardson(values, ratio):
    table = list(values)
    estimates = [table[-1]]
    for level in range(1, len(table)):
        f = (Decimal(ratio) if isinstance(table[0], Decimal) else float(ratio)) ** level
        d = f - 1
        table = [(f * hi - lo) / d for lo, hi in zip(table, table[1:])]
        estimates.append(table[-1])
    return estimates


def reference_gram_errors(vectors, weights, h):
    cols = list(zip(*vectors))
    scale = [w / (y[0] * y[0]) for w, y in zip(weights, vectors)]
    worst_diag = worst_off = 0.0
    for n in range(len(cols)):
        sign = -1 if h[n] < 0 else 1
        for m in range(n + 1):
            g = 0
            for c, yn, ym in zip(scale, cols[n], cols[m]):
                g = g + c * yn * ym
            if n == m:
                worst_diag = max_keep_nan(worst_diag, abs(g - sign))
            else:
                worst_off = max_keep_nan(worst_off, abs(g))
    return float(worst_diag), float(worst_off)


def _points(num):
    pts = [num("0.37"), num("-1.25"), num("2.5"), num("0.0")]
    if num is float:
        # A Decimal NaN or infinity would be an invalid operation, trapped.
        pts += [-0.0, math.inf, -math.inf, math.nan, complex(0.4, -1.3), complex(-0.0, 2.0)]
    return pts


@pytest.mark.parametrize("num,dps", PRECISIONS)
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
@pytest.mark.parametrize("N", [1, 2, 5, 8])
def test_monic_values_is_the_plain_loop_bit_for_bit(kind, N, num, dps):
    with extended_precision(dps):
        tri = tridiagonal(_family(kind, N, num))
        u = (num(0),) + tri.u
        for x in _points(num):
            for n in range(N + 2):
                # The whole table with n steps set by u, as tri.values passes it.
                reference = _bits(reference_monic_values(tri.b, u[:n], x))
                assert _bits(monic_values(tri.b, u[:n], x)) == reference, (x, n)
                assert _bits(tri.values(x, n)) == reference, (x, n)


def _bases(num):
    bases = [num("0.3"), num("-2.5"), num("1.0"), num("0.0"), num("1e300")]
    if num is float:
        return bases + [-0.0, math.inf, -math.inf, math.nan, complex(0.5, 0.25)]
    return bases


@pytest.mark.parametrize("num,dps", PRECISIONS)
def test_qpochhammer_is_the_plain_loop_bit_for_bit(num, dps):
    with extended_precision(dps):
        for q in (num("0.5"), num("0.83")):
            for base in _bases(num):
                for k in range(1, 12):
                    assert _bits(qpochhammer(base, q, k)) == _bits(
                        reference_qpochhammer(base, q, k)), (base, q, k)
                # The empty product is typed by the nome: 1.0 or Decimal(1).
                assert _bits(qpochhammer(base, q, 0)) == _bits(q ** 0)


@pytest.mark.parametrize("num,dps", PRECISIONS)
def test_table_entries_are_the_direct_values(num, dps):
    rng = random.Random(5)
    with extended_precision(dps):
        q = num("0.61")
        table = PowerTable(q)
        exponents = [rng.randint(-40, 90) for _ in range(200)]
        for k in exponents:
            assert _bits(table[k]) == _bits(q ** k), k
        # Prefix rows read in any order, at any length, for any base.
        for base in _bases(num):
            lengths = list(range(14)) * 2
            rng.shuffle(lengths)
            for k in lengths:
                assert _bits(table.pochhammer(base, k)) == _bits(qpochhammer(base, q, k))
        with pytest.raises(ValueError, match="non-negative"):
            table.pochhammer(num("0.3"), -1)


@pytest.mark.parametrize("num,dps", PRECISIONS)
def test_factor_rows_and_prefixes_are_the_running_power_loop(monkeypatch, num, dps):
    # Each row is 1 - p q^i on the running powers, each prefix the product
    # of its row in order, read in any order and at any length; a sum reads
    # the table's own rows.
    with extended_precision(dps):
        q = num("0.61")
        table = PowerTable(q)
        table.pochhammer(num("0.3"), 5)
        running = reference_running(q, 21)
        for base in _bases(num):
            for k in (0, 3, 21, 9):
                row = table.factors(base, k)
                assert _bits(row[:k]) == _bits([1 - base * qpow for qpow in running[:k]])
                prefix = running[0]
                for f in row[:k]:
                    prefix = prefix * f
                assert _bits(table.pochhammer(base, k)) == _bits(prefix), (base, k)
        params = ((num("0.3"), num("-2.5")), (num("0.2"), q))
        read, factors = [], PowerTable.factors

        def reading(self, base, k):
            row = factors(self, base, k)
            read.append((self, base, row))
            return row
        monkeypatch.setattr(PowerTable, "factors", reading)
        series_terms(*params, table, q, 9)
        monkeypatch.undo()
        assert {base for _, base, _ in read} == set(params[0] + params[1])
        assert all(t is table and row is table.factors(p, 0) for t, p, row in read)


@pytest.mark.parametrize("num,dps", PRECISIONS)
def test_typed_float_is_the_product_bit_for_bit(num, dps):
    # The constant times 1 in the scalar type of like, without a float
    # conversion: the singular guard, the c = a tolerance, the grid alphas.
    # A Decimal is the constant's exact value rounded once.
    with extended_precision(dps):
        for like in (num("0.5"), num("2.75")):
            for value in (1e-13, 1e-12, 0.1, 0.3, 0.7, 0.9, 1e6, 0.5):
                assert _bits(typed_float(value, like)) == _bits(num(value) * like ** 0)


def test_a_power_that_overflows_raises_at_every_read():
    table = PowerTable(0.5)
    for _ in range(2):
        with pytest.raises(OverflowError):
            table[-2000]
    assert -2000 not in table
    assert table[-20] == 0.5 ** -20


@pytest.mark.parametrize("kind", ["qpr", "qpk"])
@pytest.mark.parametrize("N", [5, 6])
def test_one_family_read_at_two_precisions_matches_fresh_families(kind, N):
    # The family's tables are filled at 30 digits, then read at 50: every
    # result equals the one of a family that never saw the other precision.
    module = para_racah if kind == "qpr" else para_krawtchouk

    def results(fam):
        tri = tridiagonal(fam)
        lw = module.weights(fam)
        out = [tri.b, tri.u, lw.weights, lw.points]
        if kind == "qpr":
            zs = [Decimal("1.7"), Decimal("2.3")]
            out += para_racah.eval_explicit(tri, zs)
            out += para_racah.qdiff_residual(tri, zs)
            out.append(lw.weights_half)
        return _bits(out)

    with extended_precision(50):
        shared = _family(kind, N, Decimal)
    precisions = set()
    for dps in (30, 50):
        with extended_precision(dps):
            precisions.add(getcontext().prec)
            assert results(shared) == results(shared.replace()), dps
    assert set(shared.__dict__["_powers"]) == precisions


@pytest.mark.parametrize("num", [float, Decimal], ids=["double", "mpf"])
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
def test_a_filled_table_leaves_the_record_unchanged(kind, num):
    with extended_precision(50):
        fam = _family(kind, 5, num)
        before = (repr(fam), hash(fam))
        module = para_racah if kind == "qpr" else para_krawtchouk
        tridiagonal(fam)
        module.weights(fam)
        assert fam.powers()
        assert (repr(fam), hash(fam)) == before
        fresh = _family(kind, 5, num)
        assert fam == fresh and fresh == fam
        assert fam.replace() == fresh and hash(fam.replace()) == hash(fresh)
        assert fam.replace(alpha=num("0.5")) == fresh.replace(alpha=num("0.5"))


@pytest.mark.parametrize("num,dps", PRECISIONS)
@pytest.mark.parametrize("N", [3, 6, 9])
def test_series_sums_are_the_plain_loop(N, num, dps):
    # A sum's terms and their sum, a point's basis row and the explicit
    # expansion's dot product of the two: each is its plain loop's.
    with extended_precision(dps):
        fam = _family("qpr", N, num)
        q, a, c, j = fam.q, fam.a, fam.c, fam.j
        params = ((q ** -j, q ** (j - N)), (q ** -j, a * c, (a / c) * q ** (j + 1 - N), q))
        terms = series_terms(*params, PowerTable(q), q, j)
        assert _bits(terms) == _bits(reference_terms(*params, q, q, j))
        assert _bits(qseries._series_eval_with_magnitude(SeriesSpec(*params, q, q, j))) == _bits(
            reference_series_sum(*params, q, q, j))
        row = list(enumerate(terms))
        for z in (num("1.3"), num("2.9")):
            basis = para_racah._point_factors(fam, z)
            assert _bits(basis) == _bits(reference_basis(q, N + 1, (a * z, a / z)))
            assert _bits(para_racah._explicit_value(row, basis)) == _bits(
                reference_dot(row, basis))


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("module", ["para_racah.py", "para_krawtchouk.py"])
def test_family_formulas_read_powers_and_prefixes_from_the_table(module):
    # No formula takes a power of the nome itself, and qpochhammer with the
    # nome q is called only on a base that depends on the point z; every
    # other power and (base; q)_k comes from the family's table.
    tree = ast.parse((SRC / module).read_text())
    powers = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.left, ast.Name) and node.left.id == "q"]
    assert not powers
    z_free = [call.lineno for call in ast.walk(tree)
              if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
              and call.func.id == "qpochhammer"
              and len(call.args) == 3 and _names(call.args[1]) == {"q"}
              and not any("z" in name for name in _names(call.args[0]))]
    assert not z_free
    aliases = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and _names(node.value) == {"qpochhammer"}]
    assert not aliases


@pytest.mark.parametrize("num,dps", PRECISIONS)
def test_series_sums_at_special_and_mixed_points_are_the_plain_loop(num, dps):
    with extended_precision(dps):
        fam = _family("qpr", 6, num)
        q, a, c = fam.q, fam.a, fam.c
        for params in [((q ** -3,), (a * c, q))]:
            terms = series_terms(*params, PowerTable(q), q, 3)
            assert _bits(terms) == _bits(reference_terms(*params, q, q, 3))
            assert _bits(qseries._series_eval_with_magnitude(SeriesSpec(*params, q, q, 3))) == (
                _bits(reference_series_sum(*params, q, q, 3)))
            pairs = list(enumerate(terms))
            # The whole row, one with a gap (k = 0 and 3), one led by 0.25.
            rows = [pairs, pairs[::3], [(0, num(0.25))] + pairs[1:]]
            for p in _points(num):
                for bases in ((p,), (a, p), ()):
                    basis = reference_basis(q, 4, bases)
                    for row in rows:
                        assert _bits(para_racah._explicit_value(row, basis)) == _bits(
                            reference_dot(row, basis)), (p, bases, row)


@pytest.mark.parametrize("dps", [20, 50, 120])
def test_richardson_is_the_plain_table(dps):
    rng = random.Random(dps)
    with extended_precision(dps):
        tables = [[Decimal(2) + Decimal(3) / 2 ** k for k in range(11)],
                  [Decimal(rng.uniform(-5, 5)) for _ in range(7)],
                  [Decimal("0.5")],
                  [1.0, math.nan, 3.0],
                  [math.inf, 1.0, -math.inf]]
        for values in tables:
            for ratio in (2, 10):
                assert _bits(connections.richardson(values, ratio)) == _bits(
                    reference_richardson(values, ratio)), (values, ratio)
                assert _bits(connections.richardson(iter(values), ratio)) == _bits(
                    reference_richardson(values, ratio))


@pytest.mark.parametrize("num,dps", PRECISIONS)
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
@pytest.mark.parametrize("N", [2, 5, 8])
def test_gram_dot_products_and_errors_are_the_plain_loops(kind, N, num, dps):
    module = para_racah if kind == "qpr" else para_krawtchouk
    with extended_precision(dps):
        tri = tridiagonal(_family(kind, N, num))
        lw = module.weights(tri.family)
        vectors, _ = recurrence.lattice_vectors(tri.b, tri.u, lw.points)
        assert _bits(verify.gram_errors(vectors, lw.weights, tri.h)) == _bits(
            reference_gram_errors(vectors, lw.weights, tri.h))
        # A special value at one lattice point: NaN, infinities and zero in
        # binary64; NaN and zero in Decimal, where an infinite weight would
        # meet an invalid operation.
        poisons = ((num("nan"), num(0)) if num is Decimal else
                   (math.nan, math.inf, -math.inf, 0.0))
        for poison in poisons:
            for s in (0, N):
                bad = list(lw.weights)
                bad[s] = poison
                assert _bits(verify.gram_errors(vectors, bad, tri.h)) == _bits(
                    reference_gram_errors(vectors, bad, tri.h)), (poison, s)
