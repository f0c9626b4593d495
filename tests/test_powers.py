"""The per-family power tables: each q-power and each (base; q)_k prefix of
a z-free base is computed once per family and working precision, and every
value read from a table is the one the direct computation gives, bit for
bit.  The recurrence loop with its first two steps written out is the plain
loop's, bit for bit, at every kind of point.  Each loop that runs on mpmath's
raw tuples (qortho._mpfloops) is its plain operator loop's, bit for bit, at
20, 50 and 120 digits; NaN, infinite, mpc and float operands, and mixed ones,
take the operator loop itself."""

import ast
import math
import random
from operator import mul
from pathlib import Path

import mpmath
import pytest

from qortho import _mpfloops, connections, para_krawtchouk, para_racah, recurrence, verify
from qortho.para_krawtchouk import ParaKrawtchoukFamily
from qortho.para_racah import ParaRacahFamily
from qortho.qseries import PowerTable, SeriesPlan, qpochhammer
from qortho.recurrence import monic_values, tridiagonal
from qortho.scalars import max_keep_nan, sqrt

SRC = Path(__file__).resolve().parents[1] / "src" / "qortho"

QPR = dict(a="0.9", c="0.7", alpha="0.3", q="0.5")
QPK = dict(Delta="1.3", alpha="0.35", q="0.5")

# (scalar type, working digits): binary64, and mpf at three precisions, so a
# raw-tuple loop that read the precision anywhere but the context would show.
PRECISIONS = [pytest.param(float, 50, id="double"), pytest.param(mpmath.mpf, 20, id="mpf20"),
              pytest.param(mpmath.mpf, 50, id="mpf"), pytest.param(mpmath.mpf, 120, id="mpf120")]


def _family(kind, N, num):
    params = QPR if kind == "qpr" else QPK
    cls = ParaRacahFamily if kind == "qpr" else ParaKrawtchoukFamily
    return cls(N=N, **{k: num(v) for k, v in params.items()})


def _bits(v):
    """A value's type and exact bits: NaN, -0.0 and the float/mpf types count."""
    if isinstance(v, (tuple, list)):
        return [_bits(x) for x in v]
    if isinstance(v, float):
        return ("float", v.hex())
    if isinstance(v, complex):
        return ("complex", v.real.hex(), v.imag.hex())
    if isinstance(v, mpmath.mpf):
        return ("mpf", v._mpf_)
    if isinstance(v, mpmath.mpc):
        return ("mpc", v._mpc_)
    return (type(v).__name__, repr(v))


# The loops as they were before the tables: the references.


def reference_monic_values(b, u, x):
    prev, cur = 0.0, 1.0
    out = [cur]
    for bm, um in zip(b, u):
        cur, prev = (x - bm) * cur - um * prev, cur
        out.append(cur)
    return out


def reference_qpochhammer(a, q, k):
    out = 1.0
    qpow = q ** 0
    for _ in range(k):
        out = out * (1 - a * qpow)
        qpow = qpow * q
    return out


def reference_series_sum(plan, varying):
    plain = plan.plain or any(isinstance(v, (mpmath.mpf, mpmath.mpc)) for v in varying)
    term = 1.0 * plan.argument ** 0
    total = comp = magnitude = 0.0
    for k in range(plan.degree + 1):
        magnitude = magnitude + abs(term)
        if plain:
            total = total + term
        else:
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
        if k == plan.degree:
            break
        for f in plan.num[k]:
            term = term * f
        for p in varying:
            term = term * (1 - p * plan.qpows[k])
        for f in plan.den[k]:
            term = term / f
        term = term * plan.argument
    return total, magnitude


def reference_richardson(values, ratio):
    table = list(values)
    estimates = [table[-1]]
    for level in range(1, len(table)):
        f = mpmath.mpf(ratio) ** level
        d = f - 1
        table = [(f * hi - lo) / d for lo, hi in zip(table, table[1:])]
        estimates.append(table[-1])
    return estimates


def reference_gram_errors(tri, lw):
    N = tri.family.N
    cols = list(zip(*(reference_monic_values(tri.b[:N], (0.0,) + tri.u, x) for x in lw.points)))
    worst_diag = worst_off = 0.0
    for n in range(N + 1):
        for m in range(n + 1):
            g = sum(w * pn * pm for w, pn, pm in zip(lw.weights, cols[n], cols[m]))
            if n == m:
                worst_diag = max_keep_nan(worst_diag, abs(g - lw.h[n]) / abs(lw.h[n]))
            else:
                worst_off = max_keep_nan(worst_off, abs(g) / sqrt(abs(lw.h[n] * lw.h[m])))
    return float(worst_diag), float(worst_off)


def reference_char_poly_derivative(points, s):
    out = 1.0
    for k, xk in enumerate(points):
        if k != s:
            out = out * (points[s] - xk)
    return out


def _points(num):
    pts = [num("0.37"), num("-1.25"), num("2.5"), num("0.0")]
    if num is float:
        pts += [-0.0, math.inf, -math.inf, math.nan, complex(0.4, -1.3), complex(-0.0, 2.0)]
    else:
        # The float point meets an mpf table: a mixed loop.
        pts += [mpmath.inf, -mpmath.inf, mpmath.nan, mpmath.mpc("0.4", "-1.3"), 0.37]
    return pts


@pytest.mark.parametrize("num,dps", PRECISIONS)
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
@pytest.mark.parametrize("N", [1, 2, 5, 8])
def test_monic_values_is_the_plain_loop_bit_for_bit(kind, N, num, dps):
    with mpmath.workdps(dps):
        tri = tridiagonal(_family(kind, N, num))
        u = (0.0,) + tri.u
        for x in _points(num):
            for n in range(N + 2):
                assert _bits(monic_values(tri.b[:n], u, x)) == _bits(
                    reference_monic_values(tri.b[:n], u, x)), (x, n)
                assert _bits(tri.values(x, n)) == _bits(
                    reference_monic_values(tri.b[:n], u, x)), (x, n)


def _bases(num):
    bases = [num("0.3"), num("-2.5"), num("1.0"), num("0.0"), num("1e300")]
    if num is float:
        return bases + [-0.0, math.inf, -math.inf, math.nan, complex(0.5, 0.25)]
    return bases + [mpmath.inf, -mpmath.inf, mpmath.nan, mpmath.mpc("0.5", "0.25"), 0.3]


@pytest.mark.parametrize("num,dps", PRECISIONS)
def test_qpochhammer_is_the_plain_loop_bit_for_bit(num, dps):
    with mpmath.workdps(dps):
        for q in (num("0.5"), num("0.83")):
            for base in _bases(num):
                for k in range(1, 12):
                    assert _bits(qpochhammer(base, q, k)) == _bits(
                        reference_qpochhammer(base, q, k)), (base, q, k)
                # The empty product is typed by the nome: 1.0 or mpf(1).
                assert _bits(qpochhammer(base, q, 0)) == _bits(q ** 0)


@pytest.mark.parametrize("num,dps", PRECISIONS)
def test_table_entries_are_the_direct_values(num, dps):
    rng = random.Random(5)
    with mpmath.workdps(dps):
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
        lw = module.weights(tri)
        out = [tri.b, tri.u, lw.weights, lw.points, lw.k_norm]
        if kind == "qpr":
            zs = [mpmath.mpf("1.7"), mpmath.mpf("2.3")]
            out += [para_racah.eval_explicit(fam, n, zs) for n in range(N + 1)]
            out += [para_racah.qdiff_residual(tri, n, zs) for n in range(N + 1)]
            out.append(lw.weights_half)
        return _bits(out)

    with mpmath.workdps(50):
        shared = _family(kind, N, mpmath.mpf)
    precisions = set()
    for dps in (30, 50):
        with mpmath.workdps(dps):
            precisions.add(mpmath.mp.prec)
            assert results(shared) == results(shared.replace()), dps
    assert set(shared.__dict__["_powers"]) == precisions


@pytest.mark.parametrize("num", [float, mpmath.mpf], ids=["double", "mpf"])
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
def test_a_filled_table_leaves_the_record_unchanged(kind, num):
    with mpmath.workdps(50):
        fam = _family(kind, 5, num)
        before = (repr(fam), hash(fam))
        module = para_racah if kind == "qpr" else para_krawtchouk
        module.weights(tridiagonal(fam))
        assert fam.powers()
        assert (repr(fam), hash(fam)) == before
        fresh = _family(kind, 5, num)
        assert fam == fresh and fresh == fam
        assert fam.replace() == fresh and hash(fam.replace()) == hash(fresh)
        assert fam.replace(alpha=num("0.5")) == fresh.replace(alpha=num("0.5"))


@pytest.mark.parametrize("num,dps", PRECISIONS)
@pytest.mark.parametrize("N", [3, 6, 9])
def test_series_sums_and_christoffel_derivatives_are_the_plain_loops(N, num, dps):
    with mpmath.workdps(dps):
        fam = _family("qpr", N, num)
        q, a, c, j = fam.q, fam.a, fam.c, fam.j
        plan = SeriesPlan((q ** -j, q ** (j - N)), (q ** -j, a * c, (a / c) * q ** (j + 1 - N), q),
                          q, q, j)
        for z in (num("1.3"), num("2.9")):
            varying = (a * z, a / z)
            assert _bits(plan.sum(varying)) == _bits(reference_series_sum(plan, varying))
        points = para_racah.lattice(fam).points
        for s in range(N + 1):
            assert _bits(recurrence._char_poly_derivative(points, s)) == _bits(
                reference_char_poly_derivative(points, s))


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
    with mpmath.workdps(dps):
        fam = _family("qpr", 6, num)
        q, a, c = fam.q, fam.a, fam.c
        plans = [SeriesPlan((q ** -3,), (a * c, q), q, q, 3)]
        if num is not float:
            # A float parameter makes the whole plan a mixed one.
            plans.append(SeriesPlan((q ** -3,), (a * c, 0.25, q), q, q, 3))
        for plan in plans:
            for p in _points(num):
                for varying in ((p,), (a, p), ()):
                    assert _bits(plan.sum(varying)) == _bits(
                        reference_series_sum(plan, varying)), (p, varying)


@pytest.mark.parametrize("dps", [20, 50, 120])
def test_richardson_is_the_plain_table(dps):
    rng = random.Random(dps)
    with mpmath.workdps(dps):
        tables = [[mpmath.mpf(2) + mpmath.mpf(3) / 2 ** k for k in range(11)],
                  [mpmath.mpf(rng.uniform(-5, 5)) for _ in range(7)],
                  [mpmath.mpf("0.5")],
                  [mpmath.mpf(1), mpmath.nan, mpmath.mpf(3)],
                  [mpmath.inf, mpmath.mpf(1), -mpmath.inf]]
        for values in tables:
            for ratio in (2, 10):
                assert _bits(connections.richardson(values, ratio)) == _bits(
                    reference_richardson(values, ratio)), (values, ratio)
                assert _bits(connections.richardson(iter(values), ratio)) == _bits(
                    reference_richardson(values, ratio))


def _columns(tri, lw):
    cols = list(zip(*(tri.values(x, tri.family.N) for x in lw.points)))
    return [list(map(mul, lw.weights, col)) for col in cols], cols


@pytest.mark.parametrize("num,dps", PRECISIONS)
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
@pytest.mark.parametrize("N", [2, 5, 8])
def test_gram_dot_products_and_errors_are_the_plain_loops(kind, N, num, dps):
    module = para_racah if kind == "qpr" else para_krawtchouk
    with mpmath.workdps(dps):
        tri = tridiagonal(_family(kind, N, num))
        lw = module.weights(tri)
        assert _bits(verify.gram_errors(tri, lw)) == _bits(reference_gram_errors(tri, lw))
        weighted, cols = _columns(tri, lw)
        if num is float:
            return
        # Every dot product gram_errors takes on raw tuples: columns m >= 1.
        for n in range(N + 1):
            for m in range(1, n + 1):
                assert _bits(_mpfloops.dot(weighted[n], cols[m])) == _bits(
                    sum(map(mul, weighted[n], cols[m])))
        # A special value at one lattice point, and a float weight (mixed).
        for poison in (mpmath.nan, mpmath.inf, -mpmath.inf, mpmath.mpf(0), 0.5):
            for s in (0, N):
                weights = list(lw.weights)
                weights[s] = poison
                bad = lw.replace(weights=tuple(weights))
                assert _bits(verify.gram_errors(tri, bad)) == _bits(
                    reference_gram_errors(tri, bad)), (poison, s)
                if poison == 0.5:
                    continue
                weighted, cols = _columns(tri, bad)
                for m in range(1, N + 1):
                    assert _bits(_mpfloops.dot(weighted[N], cols[m])) == _bits(
                        sum(map(mul, weighted[N], cols[m])))
