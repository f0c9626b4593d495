"""The parameter records keep their value semantics: families are immutable,
compare and hash by value and check their parameters on every construction,
``replace`` included; the weight tables and deformed recurrence tables built
through ``replace`` are the ones the dataclass-based records gave, bit for
bit (digest recorded at the commit before the records became plain
classes; re-recorded when h_0 became the table's own one and the lattice
record dropped its z representatives, after a diff of the hashed data showed
only the 24 h_0 entries of the mpf tables moving from 1.0 to an mpf 1; and
re-recorded over the kept fields, computed on the code before that change,
when the weight record dropped its copies of h_n, k_norm and the measure's
sign and the table its positivity field; and re-recorded when the extended
scalar became ``decimal.Decimal``, after the binary64 half hashed as
before)."""

import hashlib
from decimal import Decimal

import pytest

from oracles.askey_wilson import AskeyWilsonParams
from oracles.qseries import SeriesSpec
from qortho import para_krawtchouk, para_racah
from qortho.connections import QRacahParams
from qortho.para_krawtchouk import ParaKrawtchoukFamily
from qortho.para_racah import LatticeWeights, ParaRacahFamily
from qortho.recurrence import TridiagonalSystem, lattice_vectors, tridiagonal
from qortho.scalars import extended_precision
from qortho.verify import Check

QPR = dict(a=0.9, c=0.7, alpha=0.3, q=0.5, N=5)
QPK = dict(Delta=1.3, alpha=0.35, q=0.5, N=6)
FAMILIES = [(ParaRacahFamily, QPR), (ParaKrawtchoukFamily, QPK)]
IDS = ["qpr", "qpk"]


@pytest.mark.parametrize("cls,params", FAMILIES, ids=IDS)
def test_equal_families_compare_and_hash_equal(cls, params):
    one, two = cls(**params), cls(**params)
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert len({one, two}) == 1
    other = one.replace(alpha=0.5)
    assert other != one
    assert {one: 1, other: 2}[two] == 1
    with extended_precision(50):
        hi = cls(**{k: v if k == "N" else Decimal(v) for k, v in params.items()})
        assert hi == hi.replace() and hash(hi) == hash(hi.replace())


def test_families_of_different_kinds_are_never_equal():
    qpr = ParaRacahFamily(a=1.3, c=1.0, alpha=0.35, q=0.5, N=6)
    qpk = ParaKrawtchoukFamily(**QPK)
    assert qpr != qpk and qpk != qpr
    assert qpr != (1.3, 1.0, 0.35, 0.5, 6)


@pytest.mark.parametrize("cls,params", FAMILIES, ids=IDS)
def test_family_fields_cannot_be_assigned_or_deleted(cls, params):
    fam = cls(**params)
    for name in params:
        with pytest.raises(AttributeError):
            setattr(fam, name, params[name])
        with pytest.raises(AttributeError):
            delattr(fam, name)
    with pytest.raises(AttributeError):
        fam.extra = 1
    assert fam == cls(**params)


@pytest.mark.parametrize("cls,params", FAMILIES, ids=IDS)
def test_replace_checks_the_new_family(cls, params):
    fam = cls(**params)
    with pytest.raises(ValueError, match="nome q"):
        fam.replace(q=2.0)
    with pytest.raises(ValueError, match="alpha"):
        fam.replace(alpha=1.0)
    with pytest.raises(ValueError, match="N must be"):
        fam.replace(N=0)
    with pytest.raises(TypeError):
        fam.replace(b=0.5)
    moved = fam.replace(alpha=0.5, N=7)
    assert type(moved) is cls
    assert (moved.alpha, moved.N) == (0.5, 7)
    assert all(getattr(moved, k) == v for k, v in params.items() if k not in ("alpha", "N"))
    assert fam == cls(**params)


def test_lattice_parameters_are_checked_on_replace():
    with pytest.raises(ValueError, match="must be positive"):
        ParaRacahFamily(**QPR).replace(c=-0.7)
    with pytest.raises(ValueError, match="must be finite"):
        ParaRacahFamily(**QPR).replace(a=float("inf"))
    with pytest.raises(ValueError, match="positive real"):
        ParaKrawtchoukFamily(**QPK).replace(Delta=0.0)


def test_records_take_their_fields_by_position_and_keyword():
    assert ParaRacahFamily(0.9, 0.7, 0.3, 0.5, 5) == ParaRacahFamily(**QPR)
    assert ParaKrawtchoukFamily(1.3, 0.35, 0.5, 6) == ParaKrawtchoukFamily(**QPK)
    spec = SeriesSpec((0.2,), (0.5,), 0.5, 0.7, 3)
    assert (spec.numerator, spec.denominator, spec.q, spec.argument, spec.truncation) == (
        (0.2,), (0.5,), 0.5, 0.7, 3)
    assert SeriesSpec((0.2,), (0.5,), 0.5, 0.7, truncation=3).truncation == 3
    chk = Check("gram", True, 1e-12, 1e-8)
    assert (chk.name, chk.passed, chk.residual, chk.tolerance, chk.note) == (
        "gram", True, 1e-12, 1e-8, "")
    lw = LatticeWeights((1.0,), (0.5,))
    assert (lw.points, lw.weights, lw.weights_half) == ((1.0,), (0.5,), None)
    assert LatticeWeights._fields == ("points", "weights", "weights_half")
    tri = TridiagonalSystem(None, (1.0,), ())
    assert (tri.family, tri.b, tri.u) == (None, (1.0,), ())
    assert TridiagonalSystem._fields == ("family", "b", "u")
    p = QRacahParams(0.1, 0.2, 0.3, 0.4, 0.5)
    assert (p.alpha, p.beta, p.gamma, p.delta, p.q) == (0.1, 0.2, 0.3, 0.4, 0.5)
    with pytest.raises(ValueError, match="nome q"):
        AskeyWilsonParams(a=0.8, b=0.6, c=0.4, d=0.3, q=1.5)


def test_tables_compare_by_value_and_replace_keeps_the_other_fields():
    fam = ParaRacahFamily(**QPR)
    tri = tridiagonal(fam)
    assert tri == tridiagonal(ParaRacahFamily(**QPR))
    assert tri != tridiagonal(fam.replace(alpha=0.5))
    bumped = tri.replace(b=(tri.b[0] + 1.0,) + tri.b[1:])
    assert type(bumped) is TridiagonalSystem and bumped != tri
    assert (bumped.family, bumped.u, bumped.positive) == (tri.family, tri.u, tri.positive)
    lw = para_racah.weights(fam)
    assert lw.replace(weights_half=None).points is lw.points
    assert repr(fam) == "ParaRacahFamily(a=0.9, c=0.7, alpha=0.3, q=0.5, N=5)"


def test_positivity_is_read_from_the_table_replace_builds():
    # No copied flag survives a replace of u.
    tri = tridiagonal(ParaRacahFamily(**QPR))
    assert tri.positive is True
    assert tri.replace(u=(-1.0,) + tri.u[1:]).positive is False


def _bits(v):
    if isinstance(v, (tuple, list)):
        return [_bits(x) for x in v]
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, Decimal):
        return ["decimal", str(v)]
    return repr(v)


def _fields(record, names):
    return [[name, _bits(getattr(record, name))] for name in names]


_FAMILY_FIELDS = {ParaRacahFamily: ("a", "c", "alpha", "q", "N"),
                  ParaKrawtchoukFamily: ("Delta", "alpha", "q", "N")}
_WEIGHT_FIELDS = ("points", "weights", "weights_half")


def _weighted_and_deformed_digest():
    """sha256 over every weight table (closed form and, for qpr, Christoffel)
    and every table deformed to 0.1, 0.3, 0.5, 0.7 and 0.9 of qpr and qpk
    families at N 1-8, in binary64 and at 50 digits."""
    out = []
    for num, digits in ((float, 15), (Decimal, 50)):
        with extended_precision(digits):
            for N in range(1, 9):
                fams = [ParaRacahFamily(a=num("0.9"), c=num("0.7"), alpha=num("0.3"),
                                        q=num("0.5"), N=N),
                        ParaKrawtchoukFamily(Delta=num("1.3"), alpha=num("0.35"),
                                             q=num("0.5"), N=N)]
                for fam in fams:
                    tri = tridiagonal(fam)
                    kind = para_racah if type(fam) is ParaRacahFamily else para_krawtchouk
                    lw = kind.weights(fam)
                    out.append(_fields(lw, _WEIGHT_FIELDS))
                    if kind is para_racah:
                        vectors, _ = lattice_vectors(tri.b, tri.u, lw.points)
                        out.append(_bits(para_racah.weights_from_christoffel(tri, vectors)))
                    for al in (0.1, 0.3, 0.5, 0.7, 0.9):
                        moved = tri.at_alpha(num(al))
                        out.append(_fields(moved.family, _FAMILY_FIELDS[type(fam)]))
                        out.append(_fields(moved, ("b", "u")))
    return hashlib.sha256(repr(out).encode()).hexdigest()


def test_weighted_and_deformed_tables_are_unchanged_bit_for_bit():
    assert _weighted_and_deformed_digest() == (
        "7215d1733241e6db4b574145a63d27d6a54e9ef9a36dba596a6501dc51a045d8")
