"""Each convention the two families share is written once: the bi-lattice
order, the (A_n, C_n) -> monic map, the q-difference form and the palindrome
residual.  The values the shared routines return are the ones the per-module
copies gave, bit for bit (digest recorded before the copies were merged;
re-recorded when P_0 and h_0 became the table's own one and the lattice
record dropped its z representatives, after a diff of the hashed data showed
only the 51 mpf P_0 and h_0 entries moving from 1.0 to an mpf 1; and
re-recorded over the kept fields, computed on the code before that change,
when the weight record dropped its copies of h_n, k_norm and the measure's
sign; and re-recorded when the extended scalar became ``decimal.Decimal``,
after the binary64 rows and the Askey-Wilson oracle's mpmath rows hashed as
before), and no module outside ``recurrence`` spells out the strand order
again."""

import hashlib
import math
import re
from decimal import Decimal
from pathlib import Path

import mpmath
import pytest

from oracles import askey_wilson
from oracles.askey_wilson import AskeyWilsonParams
from oracles.connections import qracah_monic_eval
from qortho import connections, para_krawtchouk, para_racah, recurrence, spectral
from qortho.para_krawtchouk import ParaKrawtchoukFamily
from qortho.para_racah import ParaRacahFamily
from qortho.recurrence import tridiagonal
from qortho.scalars import extended_precision, typed_float

SRC = Path(__file__).resolve().parents[1] / "src" / "qortho"

_WEIGHT_FIELDS = ("points", "weights", "weights_half")


def _bits(v):
    if isinstance(v, (tuple, list)):
        return [_bits(x) for x in v]
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, Decimal):
        return ["decimal", str(v)]
    if isinstance(v, mpmath.mpf):
        return ["mpf", list(v._mpf_)]
    return repr(v)


def _askey_wilson_rows(num):
    p = AskeyWilsonParams(a=num("0.8"), b=num("0.6"), c=num("0.4"), d=num("0.3"),
                          q=num("0.5"))
    zs = (num("1.7"), num("2.35"), num("0.45"))
    return [[n, _bits(askey_wilson.monic_eval(p, n, z)),
             _bits(askey_wilson.qdiff_residual(p, n, z))]
            for n in range(13) for z in zs]


def _qracah_rows(num, N):
    a, q = num("0.6"), num("0.5")
    p = connections.single_lattice_qracah_params(a, q, N)
    ys = (num("1.3"), num("2.7"))
    zs = (num("1.4"), num("2.2"))
    return [[_bits(qracah_monic_eval(p, n, y)) for n in range(N + 1) for y in ys],
            _bits(connections.verify_qracah_identity(a, q, N, zs))]


def _persymmetry_rows(tri):
    rows = []
    for table in (tri, tri.at_alpha(typed_float(0.5, tri.family.q))):
        rows.append(_bits(recurrence.persymmetry_residual(table)))
        if table.positive:
            rows.append(_bits(spectral.persymmetry_residual(table)))
    return rows


def _qpr_rows(num, N):
    fam = ParaRacahFamily(a=num("0.9"), c=num("0.7"), alpha=num("0.3"), q=num("0.5"), N=N)
    tri = tridiagonal(fam)
    lw = para_racah.weights(fam)
    zs = [num("2.0"), num("2.37"), num("2.9")]
    return [_bits(para_racah.lattice(fam)),
            [[name, _bits(getattr(lw, name))] for name in _WEIGHT_FIELDS],
            _bits(lw.strand_sums()),
            [_bits(row) for row in para_racah.qdiff_residual(tri, zs)],
            _persymmetry_rows(tri)]


def _qpk_rows(num, N):
    fam = ParaKrawtchoukFamily(Delta=num("1.3"), alpha=num("0.35"), q=num("0.5"), N=N)
    tri = tridiagonal(fam)
    lw = para_krawtchouk.weights(fam)
    return [_bits(para_krawtchouk.lattice(fam)),
            [[name, _bits(getattr(lw, name))] for name in _WEIGHT_FIELDS],
            _bits(lw.strand_sums()),
            _persymmetry_rows(tri)]


def _shared_conventions_digest():
    """sha256 over the Askey-Wilson monic values and q-difference residuals,
    the monic q-Racah values, and for qpr and qpk at N 1-12 the lattice, the
    weights, the strand sums, the qpr q-difference residuals and both
    persymmetry residuals, in binary64 and at 50 digits."""
    out = []
    for num, digits in ((float, 15), (Decimal, 50)):
        # The Askey-Wilson oracle keeps mpmath for its extended rows.
        with extended_precision(digits), mpmath.workdps(digits):
            out.append(_askey_wilson_rows(num if num is float else mpmath.mpf))
            for N in range(1, 13):
                out.append([N, _qracah_rows(num, N), _qpr_rows(num, N), _qpk_rows(num, N)])
    return hashlib.sha256(repr(out).encode()).hexdigest()


def test_shared_conventions_are_unchanged_bit_for_bit():
    assert _shared_conventions_digest() == (
        "98903c607b466a59bd7b633dfbec9bc72a4adaf3f89b9d66ab589db0896dac70")


@pytest.mark.parametrize("row", ["b", "u"])
def test_coefficient_persymmetry_keeps_nan(row):
    tri = tridiagonal(ParaRacahFamily(a=0.9, c=0.7, alpha=0.5, q=0.5, N=5))
    poisoned = list(getattr(tri, row))
    poisoned[1] = float("nan")
    assert math.isnan(recurrence.persymmetry_residual(tri.replace(**{row: tuple(poisoned)})))


@pytest.mark.parametrize("row", ["b", "u"])
def test_matrix_persymmetry_keeps_nan(row):
    tri = tridiagonal(ParaRacahFamily(a=0.9, c=0.7, alpha=0.5, q=0.5, N=5))
    poisoned = list(getattr(tri, row))
    poisoned[1] = float("nan")
    assert math.isnan(spectral.persymmetry_residual(tri.replace(**{row: tuple(poisoned)})))


# Strand-index arithmetic: slicing a bi-lattice sequence by parity, splitting
# an index into (s, strand), or writing a strand's point s at 2s or 2s+1.
_STRAND_INDEXING = re.compile(r"\[\s*[01]?\s*::\s*2\s*\]|divmod\([^)]*,\s*2\s*\)"
                              r"|range\(\s*[01]\s*,[^)]*,\s*2\s*\)|\[\s*2 \* s(\s*\+\s*1)?\s*\]")


def _source_lines():
    for path in sorted(SRC.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            yield path.name, number, line.strip()


def test_only_recurrence_spells_out_the_strand_order():
    found = [hit for hit in _source_lines()
             if hit[0] != "recurrence.py" and _STRAND_INDEXING.search(hit[2])]
    assert not found


def test_the_shift_operator_pole_is_written_once():
    found = [hit for hit in _source_lines() if re.search(r"\(1 - z2\) \* \(1 - ", hit[2])]
    assert len(found) == 1


def test_no_caller_replaces_the_tables_one():
    # P_0 heads every value list in the table's own type, so no module sets
    # element 0 of a list it was given.
    found = [hit for hit in _source_lines() if re.search(r"\w\[0\]\s*=[^=]", hit[2])]
    assert not found
