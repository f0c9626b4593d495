"""Verify runs: one coefficient fill and one reference spectrum per run, the
limit oracles' step families built once, NaN-keeping residual folds, Gram
errors beyond the binary64 range, named fixed precisions, and the benchmark
tracer's view of the suites."""

import importlib
import importlib.util
import itertools
import math
import random
import re
from collections import Counter
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import pytest

import support
from oracles.qseries import SeriesSpec, terminating_series_eval
from qortho import (cli, connections, para_krawtchouk, para_racah, recurrence, scalars,
                    spectral, verify)
from qortho.recurrence import TridiagonalSystem, persymmetry_residual, tridiagonal
from qortho.scalars import extended_precision, sqrt

FAM = para_racah.ParaRacahFamily(a=0.9, c=0.7, alpha=0.5, q=0.5, N=5)
NAN = float("nan")


def _entries(passes) -> Counter:
    """How often the coefficient passes compute each (kind, function,
    family, n)."""
    return Counter((kind, which, fam, n) for kind, fam, *rows in passes if kind != "limit"
                   for which, degrees in zip("bu", rows) for n in degrees)


def _qpk(Delta, alpha, q, N, num=float):
    return support.family("qpk", N, num, Delta=Delta, alpha=alpha, q=q)


@pytest.mark.parametrize("kind,alpha,num,N", [
    pytest.param(kind, alpha, num, N, id="-".join(
        ([] if kind == "qpr" else [kind]) + [str(alpha), "float" if num is float else "mpf",
                                             str(N)]))
    for kind, alpha, num, N in [
        ("qpr", 0.5, float, 5), ("qpr", 0.3, float, 6), ("qpr", "0.25", Decimal, 7),
        ("qpr", "0.5", Decimal, 8), ("qpk", "0.35", float, 5), ("qpk", "0.35", float, 6),
        ("qpk", "0.25", Decimal, 7), ("qpk", "0.5", Decimal, 8)]])
def test_one_coefficient_call_per_family_and_degree(monkeypatch, kind, alpha, num, N):
    # A qpk run's own table is the one the theta limit compares with; a qpr
    # run fills the one qpk table of Delta = a/c.
    passes = support.count_passes(monkeypatch)
    with extended_precision(50):
        if kind == "qpr":
            fam = para_racah.ParaRacahFamily(a=num("0.9"), c=num("0.7"), alpha=num(alpha),
                                             q=num("0.5"), N=N)
        else:
            fam = _qpk("1.3", alpha, "0.5", N, num)
        verify.run_suite("all", fam)
    calls = _entries(passes)
    assert max(calls.values()) == 1, calls.most_common(3)
    qpk_keys = [key for key in calls if key[0] == "qpk"]
    assert len(qpk_keys) == 2 * N + 1


@pytest.mark.parametrize("num", [float, Decimal], ids=["double", "mpf"])
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
@pytest.mark.parametrize("N", [1, 2, 3, 6, 9])
def test_deformed_tables_recompute_only_the_splice(monkeypatch, N, kind, num):
    # The reference and grid tables share every entry alpha does not enter
    # with the run's own table: at most b_j, b_{j+1}, u_j and u_{j+1} each.
    # A grid alpha equal to the family's (0.3 in double) is the run's table.
    with extended_precision(50):
        if kind == "qpr":
            fam = para_racah.ParaRacahFamily(a=num("0.9"), c=num("0.7"), alpha=num("0.3"),
                                             q=num("0.5"), N=N)
        else:
            fam = _qpk("1.3", "0.35", "0.5", N, num)
        run = verify.RunTables(fam)
        tri = run.tri
        passes = support.count_passes(monkeypatch)
        tables = [run.half, *run.grid]
    per_table = Counter(key[2] for key in _entries(passes).elements())
    assert set(per_table) == {t.family for t in tables if t is not tri}
    assert max(per_table.values()) <= 4
    outside = [n for n in range(N + 1) if n not in (N // 2, N // 2 + 1)]
    assert all(t.b[n] is tri.b[n] for t in tables for n in outside)


@pytest.mark.parametrize("N", [1, 6, 9])
def test_theta_limit_builds_one_family_per_step(monkeypatch, N):
    built = support.count_family_builds(monkeypatch, para_racah)
    checks = verify.run_suite("qpk-limit", _qpk(1.3, 0.35, 0.5, N))
    assert checks[0].passed
    assert len(built) == 3


@pytest.mark.parametrize("kind", ["qpr", "qpk"])
@pytest.mark.parametrize("N", range(1, 17))
def test_theta_limit_matches_the_per_degree_reference(kind, N):
    rng = random.Random(N)
    for num, digits in ((float, 15), (Decimal, 50)):
        with extended_precision(digits):
            if kind == "qpr":
                fam = support.sample_family(rng, N, alpha=rng.choice([0.25, 0.5, 0.75]))
                fam = fam.replace(a=num(fam.a), c=num(fam.c),
                                  alpha=num(fam.alpha), q=num(fam.q))
            else:
                fam = _qpk(rng.uniform(1.05, 1.5), rng.choice([0.25, 0.5, 0.75]),
                           rng.uniform(0.3, 0.6), N, num)
            [chk] = verify.run_suite("qpk-limit", fam)
            assert chk.residual == support.qpk_theta_limit_reference(fam), num


@pytest.mark.parametrize("digits", [30, 80])
@pytest.mark.parametrize("N", [5, 8, 13, 16])
def test_qpr_theta_limit_is_the_reference_at_any_precision(digits, N):
    # A qpr run fills its qpk table at the limit's 50 digits whatever its own
    # precision, so every residual is the reference's.
    with extended_precision(digits):
        fam = para_racah.ParaRacahFamily(a=Decimal("0.8"), c=Decimal("0.55"),
                                         alpha=Decimal("0.75"), q=Decimal("0.45"),
                                         N=N)
        [chk] = verify.run_suite("qpk-limit", fam)
        assert chk.residual == support.qpk_theta_limit_reference(fam)


@pytest.mark.parametrize("N", [1, 6, 9])
def test_a_double_qpr_theta_limit_builds_its_qpk_target_at_the_limits_digits(monkeypatch, N):
    # The target has the 50-digit Delta, alpha and q of the three theta
    # tables, so its b_n and u_n are Decimals, not the binary64 table of the run.
    built = []
    original = verify.tridiagonal

    def spy(fam):
        built.append(original(fam))
        return built[-1]

    monkeypatch.setattr(verify, "tridiagonal", spy)
    fam = para_racah.ParaRacahFamily(a=0.9, c=0.7, alpha=0.3, q=0.5, N=N)
    [chk] = verify.run_suite("qpk-limit", fam)
    [target] = [t for t in built if isinstance(t.family, para_krawtchouk.ParaKrawtchoukFamily)]
    assert len(built) == 4
    assert all(type(v) is Decimal for v in (target.family.Delta, target.family.alpha,
                                               target.family.q, *target.b, *target.u))
    assert target.family.Delta == Decimal(0.9 / 0.7)
    assert chk.passed and chk.residual == support.qpk_theta_limit_reference(fam)


def test_qpk_theta_limit_reads_the_runs_own_table():
    # At 30 digits the residual measures the run's 30-digit table, whether
    # the table was filled by an earlier suite or by the limit itself.
    with extended_precision(30):
        fam = _qpk("2.2695", "0.5", "0.4148", 5, Decimal)
        alone = verify.run_suite("qpk-limit", fam)[0].residual
        every = {c.name: c.residual for c in verify.run_suite("all", fam)}
        run = verify.RunTables(fam)
        tri = run.tri
        run.tri = tri.replace(b=(tri.b[0] * (1 + Decimal(10) ** -20),)
                              + tri.b[1:])
        perturbed = verify.suite_qpk_limit(run, None)[0].residual
    assert alone == every["qpk-limit/qpk-theta-limit"]
    assert 1e-35 < alone <= 1e-28
    assert perturbed > 1e-22


@pytest.mark.parametrize("alpha,spectra", [(0.5, 5), (0.3, 6)])
def test_isospectral_suite_spectrum_count(monkeypatch, alpha, spectra):
    # One certificate per table: the alpha = 1/2 reference, the four grid
    # tables and, away from alpha = 1/2, the family's own table; at 1/2 the
    # reference is reused.
    calls = []
    original = spectral.spectrum

    def counted(m, points):
        calls.append(m)
        return original(m, points)

    monkeypatch.setattr(spectral, "spectrum", counted)
    checks = verify.run_suite("isospectral", FAM.replace(alpha=alpha))
    assert all(c.passed for c in checks)
    assert len(calls) == spectra


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("N", range(1, 17))
def test_isospectral_suite_reads_nothing_kind_specific(N, alpha):
    # qpk does not register the suite; it passes on qpk tables all the same.
    checks = verify.suite_isospectral(verify.RunTables(_qpk(1.3, alpha, 0.5, N)), None)
    assert [c.name for c in checks] == ["isospectrality", "spectrum-vs-lattice"]
    assert all(c.passed for c in checks), [(c.name, c.residual) for c in checks]


@pytest.mark.parametrize("N", range(1, 17))
def test_qpk_orthogonality_carries_the_christoffel_cross_check(N):
    # qpk's orthogonality ends with the cross-check: it has no alpha = 1/2
    # weights, so no beta factor.
    for alpha in (0.25, 0.5, 0.75):
        checks = verify.suite_orthogonality(verify.RunTables(_qpk(1.3, alpha, 0.5, N)), None)
        assert [c.name for c in checks][-2:] == ["gram-off-diagonal", "christoffel-cross-check"]
        assert checks[-1].passed, (alpha, checks[-1].residual)


def test_family_checks_and_persymmetry_folds_convert_no_float():
    # Finiteness and degeneracy are read off the Decimal itself, and each
    # palindrome fold starts from a difference of its row's type, so none
    # meets a float.
    num = Decimal
    with extended_precision(50):
        tables = [tridiagonal(fam) for fam in (
            para_racah.ParaRacahFamily(a=num("0.9"), c=num("0.7"), alpha=num("0.5"),
                                       q=num("0.5"), N=6),
            _qpk("1.3", "0.5", "0.5", 6, num))]
        with support.float_conversions() as floats:
            for tri in tables:
                tri.family.replace()
                assert not tri.family.degenerate
                assert persymmetry_residual(tri) <= 1e-40
    assert floats == []


def test_isospectral_grid_is_typed_by_q():
    # A double run deforms at the float alphas themselves; an extended run
    # at each one rounded to its own digits, so every deformed entry is a
    # Decimal.
    assert [t.family.alpha for t in verify.RunTables(FAM).grid] == list(
        verify.ISOSPECTRAL_ALPHAS)
    num = Decimal
    with extended_precision(50):
        fam = para_racah.ParaRacahFamily(a=num("0.9"), c=num("0.7"), alpha=num("0.3"),
                                         q=num("0.5"), N=9)
        grid = verify.RunTables(fam).grid
        assert [t.family.alpha for t in grid] == [+num(al) for al in verify.ISOSPECTRAL_ALPHAS]
        assert all(type(t.family.alpha) is num for t in grid)
        assert all(type(v) is num for t in grid for v in t.b + t.u)


def test_gram_off_diagonal_beyond_the_double_range():
    # b_n = 0, u_n = U on four symmetric points with equal weights: the
    # scaled off-diagonal entries are 1.5 (n, m = 2, 0) and 3.5 (3, 1), where
    # h_n = U^n is far above the largest double.
    with extended_precision(30):
        U = Decimal(10) ** 200
        tri = TridiagonalSystem(family=SimpleNamespace(N=3), b=(Decimal(0),) * 4,
                                u=(U,) * 3)
        root = sqrt(U)
        points = tuple(k * root for k in (-2, -1, 1, 2))
        # Forward vectors P_n / sqrt(h_n): the twisted ones hide that these
        # points are not zeros of R_4, and their twist shows it.
        forward = [[p / sqrt(h) for p, h in zip(tri.values(x, 3), tri.h)]
                   for x in points]
        _, off = verify.gram_errors(forward, (Decimal(1) / 4,) * 4, tri.h)
        _, twist = recurrence.lattice_vectors(tri.b, tri.u, points)
    assert off == pytest.approx(3.5, rel=1e-12)
    assert twist == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("N", [1, 6, 9, 16])
def test_bispectral_suite_makes_three_passes_per_point_at_any_N(monkeypatch, N):
    # Ten points shared by every degree, each evaluated at qz, z and z/q.
    fam = para_racah.ParaRacahFamily(a=0.9, c=0.7, alpha=0.3, q=0.5, N=N)
    passes = []
    original = recurrence.monic_values

    def counted(b, u, x):
        passes.append(min(len(b), len(u)))
        return original(b, u, x)
    monkeypatch.setattr(recurrence, "monic_values", counted)
    checks = verify.run_suite("bispectral", fam)
    assert passes == [N] * 30
    assert all(chk.passed for chk in checks)


@pytest.mark.parametrize("N", [1, 6, 9, 16])
def test_explicit_suite_makes_one_pass_and_one_factor_build_per_point_at_any_N(monkeypatch, N):
    # Ten points shared by every degree: at each, one build of the
    # z-dependent factors and one recurrence pass up to P_N, which both
    # eval_explicit's rerun rule and the check read.
    num = Decimal
    passes, builds = [], []
    original_values = recurrence.monic_values
    original_factors = para_racah._point_factors
    monkeypatch.setattr(recurrence, "monic_values",
                        lambda b, u, x: passes.append(min(len(b), len(u)))
                        or original_values(b, u, x))
    monkeypatch.setattr(para_racah, "_point_factors",
                        lambda fam, z: builds.append(z) or original_factors(fam, z))
    with extended_precision(50):
        fam = para_racah.ParaRacahFamily(a=num("0.9"), c=num("0.7"), alpha=num("0.3"),
                                         q=num("0.5"), N=N)
        checks = verify.run_suite("explicit", fam)
    assert passes == [N] * 10
    assert len(builds) == 10
    assert all(chk.passed for chk in checks)


@pytest.mark.parametrize("N", [9, 16])
def test_extended_explicit_suite_converts_only_its_points(N):
    # At 50 digits the suite converts its ten drawn points and nothing else:
    # P_0, the singular guard and the c = a tolerance are typed by the
    # family's scalars.
    num = Decimal
    with extended_precision(50):
        fam = para_racah.ParaRacahFamily(a=num("0.9"), c=num("0.7"), alpha=num("0.3"),
                                         q=num("0.5"), N=N)
        with support.float_conversions() as floats:
            checks = verify.run_suite("explicit", fam, seed=3)
    assert len(floats) == 10, floats
    assert all(1.15 <= x <= 2.5 and source == "verify._random_z" for x, source in floats)
    assert all(chk.passed for chk in checks)


@pytest.mark.parametrize("N", [5, 9, 16])
@pytest.mark.parametrize("kind,alpha", [("qpr", "0.3"), ("qpr", "0.5"),
                                        ("qpk", "0.35"), ("qpk", "0.5")])
def test_extended_verify_converts_only_its_points(capsys, kind, alpha, N):
    # One precision policy: every scalar of a 50-digit run is a Decimal.  The
    # only floats converted are the 30 points the bispectral, explicit and
    # qracah suites draw; the dual-Hahn exponent is a Decimal log ratio, and a
    # qpk run draws no point and converts nothing.  At alpha = 1/2 the
    # isospectral reference is the run's own table.
    family = ["--a", "0.9", "--c", "0.7"] if kind == "qpr" else ["--Delta", "1.3"]
    with support.float_conversions() as floats:
        cli.main(["verify", "--kind", kind, *family, "--alpha", alpha, "--q", "0.5",
                  "--N", str(N), "--suite", "all", "--precision", "extended"])
    capsys.readouterr()
    sources = Counter(source for _, source in floats)
    if kind == "qpk":
        assert floats == []
    else:
        assert sources == {"verify._random_z": 30}


@pytest.mark.parametrize("s", range(FAM.N + 1))
def test_a_moved_lattice_point_fails_the_christoffel_check(monkeypatch, s):
    tri = tridiagonal(FAM)
    _, twist = recurrence.lattice_vectors(tri.b, tri.u, para_racah.lattice(FAM))
    assert twist <= 1e-15
    lattice = para_racah.lattice

    def moved(fam):
        points = list(lattice(fam))
        points[s] *= 1 + 1e-6
        return tuple(points)
    monkeypatch.setattr(para_racah, "lattice", moved)
    _, twist = recurrence.lattice_vectors(tri.b, tri.u, para_racah.lattice(FAM))
    assert twist > verify.TOL_CHRISTOFFEL
    checks = {c.name: c for c in verify.run_suite("orthogonality", FAM)}
    assert not checks["orthogonality/christoffel-cross-check"].passed


def test_the_twist_alone_fails_the_christoffel_check(monkeypatch):
    # Weights that agree do not pass a lattice whose twist is too large.
    _poison_calls(monkeypatch, verify, "lattice_vectors", lambda k, args: True,
                  lambda r: (r[0], 2 * verify.TOL_CHRISTOFFEL))
    checks = {c.name: c for c in verify.run_suite("orthogonality", FAM)}
    chk = checks["orthogonality/christoffel-cross-check"]
    assert (chk.passed, chk.residual) == (False, 2 * verify.TOL_CHRISTOFFEL)


def _poison_calls(monkeypatch, module, name, when, poison):
    """Make module.name return poison(its result) on each call for which
    when(call number, args) holds."""
    original = getattr(module, name)
    counter = itertools.count(1)

    def poisoned(*args):
        result = original(*args)
        return poison(result) if when(next(counter), args) else result

    monkeypatch.setattr(module, name, poisoned)


def _nan_at_1(values):
    return [values[0], NAN, *values[2:]]


def _second(k, args):
    return k == 2


# (suite, check, module, function, which calls, how their results are
# poisoned): each poisoned value is a later one in its check's fold, never
# the first.
NAN_CASES = [
    ("orthogonality", "gram-diagonal", verify, "lattice_vectors", lambda k, args: True,
     lambda r: ([r[0][0], _nan_at_1(r[0][1]), *r[0][2:]], r[1])),
    ("explicit", "explicit-vs-recurrence", para_racah, "eval_explicit", lambda k, args: True,
     lambda r: [r[0], _nan_at_1(r[1]), *r[2:]]),
    ("bispectral", "qdiff-residual", para_racah, "qdiff_residual", lambda k, args: True,
     lambda r: [r[0], [r[1][0], (NAN, r[1][1][1]), *r[1][2:]], *r[2:]]),
    ("bispectral", "eigenvalue-degeneracy", para_racah, "qdiff_eigenvalue",
     lambda k, args: args[1] == 2, lambda r: NAN),
    ("orthogonality", "christoffel-cross-check", verify, "weights_from_christoffel",
     lambda k, args: True, _nan_at_1),
    ("persymmetry", "coefficient-persymmetry", para_racah, "coefficient_rows",
     lambda k, args: True, lambda r: (r[0][:2] + [NAN] + r[0][3:], r[1])),
    ("isospectral", "isospectrality", spectral, "spectrum", lambda k, args: k == 3,
     _nan_at_1),
    ("qracah", "qracah-identity", connections, "monic_values", _second, _nan_at_1),
    ("dualhahn", "dual-hahn-limit", connections, "dual_hahn_limit", lambda k, args: True,
     lambda r: [r[0], (NAN, *r[1][1:]), *r[2:]]),
    ("qpk-limit", "qpk-theta-limit", para_krawtchouk, "coefficient_rows",
     lambda k, args: True, lambda r: (_nan_at_1(r[0]), r[1])),
]


# The same for a qpk family at alpha = 1/2.
QPK_NAN_CASES = [
    ("orthogonality", "gram-diagonal", verify, "lattice_vectors", lambda k, args: True,
     lambda r: ([r[0][0], _nan_at_1(r[0][1]), *r[0][2:]], r[1])),
    ("orthogonality", "christoffel-cross-check", verify, "weights_from_christoffel",
     lambda k, args: True, _nan_at_1),
    ("persymmetry", "matrix-persymmetry", para_krawtchouk, "coefficient_rows",
     lambda k, args: True, lambda r: (_nan_at_1(r[0]), r[1])),
]


def _assert_nan_fails(monkeypatch, fam, suite, check, module, name, when, poison):
    _poison_calls(monkeypatch, module, name, when, poison)
    checks = {c.name: c for c in verify.run_suite(suite, fam)}
    chk = checks["%s/%s" % (suite, check)]
    assert not chk.passed
    assert math.isnan(chk.residual)


@pytest.mark.parametrize("suite,check,module,name,when,poison", NAN_CASES,
                         ids=["%s/%s" % case[:2] for case in NAN_CASES])
def test_nan_evaluation_fails_its_check(monkeypatch, suite, check, module, name, when,
                                        poison):
    _assert_nan_fails(monkeypatch, FAM, suite, check, module, name, when, poison)


@pytest.mark.parametrize("suite,check,module,name,when,poison", QPK_NAN_CASES,
                         ids=["%s/%s" % case[:2] for case in QPK_NAN_CASES])
def test_nan_evaluation_fails_its_qpk_check(monkeypatch, suite, check, module, name, when,
                                            poison):
    _assert_nan_fails(monkeypatch, _qpk(1.3, 0.5, 0.5, 5), suite, check, module, name,
                      when, poison)


@pytest.mark.parametrize("suite", ["bispectral", "explicit", "isospectral", "qracah",
                                   "dualhahn"])
def test_run_suite_refuses_a_suite_the_kind_lacks_in_the_cli_text(suite):
    fam = para_krawtchouk.ParaKrawtchoukFamily(Delta=1.3, alpha=0.5, q=0.5, N=4)
    with pytest.raises(ValueError) as info:
        verify.run_suite(suite, fam)
    assert str(info.value) == "suite %r is not defined for kind 'qpk'" % suite


def _not_contracting(*args):
    raise connections.ExtrapolationError("extrapolation estimates are not contracting")


# favard-positivity and the two lines its failure skips.
POSITIVITY_LINES = ["orthogonality/favard-positivity", "orthogonality/gram-orthogonality",
                    "isospectral/isospectrality"]
# Each kind of failing line, in double: (family, suites, the failing lines,
# whether a higher precision may lift them).
VERDICTS = {
    # A u_n below zero.
    "below-zero": (dict(a=2.3135, c=1.626, alpha=0.75, q=0.2465, N=8),
                   ("orthogonality", "isospectral"), POSITIVITY_LINES, False),
    # alpha = 5e-324 reads u_1 as 0 in binary64; it is 1.890e-327 at 50 digits.
    "underflowed": (dict(a=0.9, c=0.8, alpha=5e-324, q=0.5, N=1),
                    ("orthogonality", "isospectral"), POSITIVITY_LINES, True),
    # The limit runs at its own 50 digits whatever the precision.
    "dual-hahn-skip": (dict(a=0.2, c=0.19995, alpha=0.5, q=0.999, N=5), ("dualhahn",),
                       ["dualhahn/dual-hahn-limit"], False),
    # Outside the positivity region, two identities that fail in double.
    "measured": (dict(a=5.846, c=6.961, alpha=0.07499, q=0.8346, N=36),
                 ("bispectral", "explicit"),
                 ["bispectral/qdiff-residual", "explicit/explicit-vs-recurrence"], True),
}


@pytest.mark.parametrize("case", VERDICTS)
def test_each_failing_line_says_whether_more_digits_may_lift_it(monkeypatch, case):
    params, suites, lines, bound = VERDICTS[case]
    monkeypatch.setattr(connections, "dual_hahn_limit", _not_contracting)
    fam = para_racah.ParaRacahFamily(**params)
    failed = [chk for suite in suites for chk in verify.run_suite(suite, fam)
              if not chk.passed]
    assert [chk.name for chk in failed] == lines
    assert [chk.precision_bound for chk in failed] == [bound] * len(failed)


def test_an_explicit_value_that_is_an_exact_zero_both_ways_agrees(monkeypatch):
    # Both evaluations read 0 at every degree and point: residual 0, not 0 / 0.
    monkeypatch.setattr(TridiagonalSystem, "values", lambda self, x, n=None: [0.0] * (n + 1))
    monkeypatch.setattr(para_racah, "eval_explicit",
                        lambda tri, zs, recurrence: [list(row) for row in zip(*recurrence)])
    [chk] = verify.run_suite("explicit", FAM)
    assert (chk.passed, chk.residual) == (True, 0.0)


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_layers_resolve():
    tracer = _load_tracer()
    for module, names, _ in tracer.LAYERS:
        mod = importlib.import_module("qortho." + module)
        for name in names:
            assert callable(getattr(mod, name, None)), (module, name)
    for table in tracer.SUITE_TABLES:
        assert isinstance(getattr(verify, table), dict), table


def test_traced_verify_counts_every_layer_it_calls(capsys):
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "--a", "0.9", "--c", "0.7", "--alpha", "0.25",
                         "--q", "0.5", "--N", "5", "--precision", "extended"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    calls = tracer.totals()
    # The explicit suite evaluates every degree in one call and reads the
    # recurrence from one pass per point, not through eval_recurrence.
    assert calls["para_racah.eval_explicit.calls"] == 1
    assert calls.get("para_racah.eval_recurrence.calls", 0) == 0
    # Tables come from coefficient passes; b_coefficient and u_coefficient,
    # the layer the tracer names, are one-entry reads no verify run makes.
    assert calls.get("para_racah.coef.calls", 0) == 0
    for layer in ("para_racah.qdiff_residual",
                  "para_racah.christoffel", "para_racah.weights",
                  "verify.gram_errors", "spectral.spectrum",
                  "connections.qracah_identity", "connections.dual_hahn"):
        assert calls.get(layer + ".calls", 0) > 0, layer


def test_traced_oracle_series_counts_one_call_and_its_terms():
    # No command sums a spelled-out series; the Askey-Wilson oracle's route
    # is the series layer the tracer reads, one term per degree 0..4.
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        terminating_series_eval(SeriesSpec((0.5 ** -4, 0.2), (0.4, 0.5), 0.5, 0.5, truncation=4))
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["qseries.series.calls"] == 1
    assert totals["qseries.series.terms"] == 5


SRC = Path(__file__).resolve().parents[1] / "src" / "qortho"


def test_every_fixed_precision_is_named():
    # A fixed working precision is one of two named constants, never a
    # literal at its point of use, so a precision planner has one list to
    # replace.
    literal = re.compile(r"workdps\(\s*\d|digits\s*:\s*int\s*=\s*\d")
    found = [(path.name, number, line.strip())
             for path in sorted(SRC.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if literal.search(line)]
    assert not found
    assert (scalars.DEFAULT_EXTENDED_DIGITS, connections.LIMIT_DIGITS) == (50, 50)
