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
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest

import support
from qortho import (cli, connections, para_krawtchouk, para_racah, scalars, spectral,
                    verify)
from qortho.recurrence import TridiagonalSystem, persymmetry_residual, tridiagonal

FAM = para_racah.ParaRacahFamily(a=0.9, c=0.7, alpha=0.5, q=0.5, N=5)
NAN = float("nan")


def _count_coefficient_calls(monkeypatch):
    """Count b_coefficient and u_coefficient calls of both family kinds per
    (module, function, family, n)."""
    calls = Counter()
    for module in (para_racah, para_krawtchouk):
        for name in ("b_coefficient", "u_coefficient"):
            original = getattr(module, name)

            def counted(fam, n, _key=(module.__name__, name), _original=original):
                calls[(*_key, fam, n)] += 1
                return _original(fam, n)

            monkeypatch.setattr(module, name, counted)
    return calls


def _qpk(Delta, alpha, q, N, num=float):
    return para_krawtchouk.ParaKrawtchoukFamily(Delta=num(Delta), alpha=num(alpha),
                                                q=num(q), N=N)


@pytest.mark.parametrize("kind,alpha,num,N", [
    pytest.param(kind, alpha, num, N, id="-".join(
        ([] if kind == "qpr" else [kind]) + [str(alpha), num.__name__, str(N)]))
    for kind, alpha, num, N in [
        ("qpr", 0.5, float, 5), ("qpr", 0.3, float, 6), ("qpr", "0.25", mpmath.mpf, 7),
        ("qpr", "0.5", mpmath.mpf, 8), ("qpk", "0.35", float, 5), ("qpk", "0.35", float, 6),
        ("qpk", "0.25", mpmath.mpf, 7), ("qpk", "0.5", mpmath.mpf, 8)]])
def test_one_coefficient_call_per_family_and_degree(monkeypatch, kind, alpha, num, N):
    # A qpk run's own table is the one the theta limit compares with; a qpr
    # run fills the one qpk table of Delta = a/c.
    calls = _count_coefficient_calls(monkeypatch)
    with mpmath.workdps(50):
        if kind == "qpr":
            fam = para_racah.ParaRacahFamily(a=num("0.9"), c=num("0.7"), alpha=num(alpha),
                                             q=num("0.5"), N=N)
        else:
            fam = _qpk("1.3", alpha, "0.5", N, num)
        verify.run_suite("all", fam)
    assert max(calls.values()) == 1, calls.most_common(3)
    qpk_keys = [key for key in calls if key[0] == para_krawtchouk.__name__]
    assert len(qpk_keys) == 2 * N + 1


@pytest.mark.parametrize("num", [float, mpmath.mpf], ids=["double", "mpf"])
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
@pytest.mark.parametrize("N", [1, 2, 3, 6, 9])
def test_deformed_tables_recompute_only_the_splice(monkeypatch, N, kind, num):
    # The reference and grid tables share every entry alpha does not enter
    # with the run's own table: at most b_j, b_{j+1}, u_j and u_{j+1} each.
    # A grid alpha equal to the family's (0.3 in double) is the run's table.
    with mpmath.workdps(50):
        if kind == "qpr":
            fam = para_racah.ParaRacahFamily(a=num("0.9"), c=num("0.7"), alpha=num("0.3"),
                                             q=num("0.5"), N=N)
        else:
            fam = _qpk("1.3", "0.35", "0.5", N, num)
        run = verify.RunTables(fam)
        tri = run.tri
        calls = _count_coefficient_calls(monkeypatch)
        tables = [run.half, *run.grid]
    per_table = Counter(key[2] for key in calls.elements())
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
    for num, digits in ((float, 15), (mpmath.mpf, 50)):
        with mpmath.workdps(digits):
            if kind == "qpr":
                fam = verify.sample_family(rng, N, alpha=rng.choice([0.25, 0.5, 0.75]))
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
    with mpmath.workdps(digits):
        fam = para_racah.ParaRacahFamily(a=mpmath.mpf("0.8"), c=mpmath.mpf("0.55"),
                                         alpha=mpmath.mpf("0.75"), q=mpmath.mpf("0.45"),
                                         N=N)
        [chk] = verify.run_suite("qpk-limit", fam)
        assert chk.residual == support.qpk_theta_limit_reference(fam)


def test_qpk_theta_limit_reads_the_runs_own_table():
    # At 30 digits the residual measures the run's 30-digit table, whether
    # the table was filled by an earlier suite or by the limit itself.
    with mpmath.workdps(30):
        fam = _qpk("2.2695", "0.5", "0.4148", 5, mpmath.mpf)
        alone = verify.run_suite("qpk-limit", fam)[0].residual
        every = {c.name: c.residual for c in verify.run_suite("all", fam)}
        run = verify.RunTables(fam)
        tri = run.tri
        run.tri = tri.replace(b=(tri.b[0] * (1 + mpmath.mpf(10) ** -20),)
                              + tri.b[1:])
        perturbed = verify.suite_qpk_limit(run, None)[0].residual
    assert alone == every["qpk-limit/qpk-theta-limit"]
    assert 1e-35 < alone <= 1e-28
    assert perturbed > 1e-22


@pytest.mark.parametrize("alpha,spectra", [(0.5, 5), (0.3, 6)])
def test_isospectral_suite_spectrum_count(monkeypatch, alpha, spectra):
    # The alpha = 1/2 reference, the four grid tables and, away from
    # alpha = 1/2, the family's own table: at 1/2 the reference is reused.
    calls = []
    original = spectral.spectrum

    def counted(m):
        calls.append(m)
        return original(m)

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


def test_family_checks_and_persymmetry_folds_convert_no_float(monkeypatch):
    # Finiteness is read off the mpf itself, and each palindrome fold starts
    # from a difference of its row's type, so neither meets a float.
    floats = []
    for name in ("mpf_convert_rhs", "mpf_convert_arg"):
        def counted(x, *rest, _original=getattr(mpmath.mpf, name)):
            if type(x) is float:
                floats.append(x)
            return _original(x, *rest)
        monkeypatch.setattr(mpmath.mpf, name, staticmethod(counted))
    num = mpmath.mpf
    with mpmath.workdps(50):
        tables = [tridiagonal(fam) for fam in (
            para_racah.ParaRacahFamily(a=num("0.9"), c=num("0.7"), alpha=num("0.5"),
                                       q=num("0.5"), N=6),
            _qpk("1.3", "0.5", "0.5", 6, num))]
        floats.clear()
        for tri in tables:
            tri.family.replace()
            assert persymmetry_residual(tri) <= 1e-40
    assert floats == []


def test_gram_off_diagonal_beyond_the_double_range():
    # b_n = 0, u_n = U on four symmetric points with equal weights: the
    # scaled off-diagonal entries are 1.5 (n, m = 2, 0) and 3.5 (3, 1), where
    # h_n h_m is U^2 and U^4, far above the largest double.
    with mpmath.workdps(30):
        U = mpmath.mpf(10) ** 200
        tri = TridiagonalSystem(family=SimpleNamespace(N=3), b=(mpmath.mpf(0),) * 4,
                                u=(U,) * 3, positive=True)
        root = mpmath.sqrt(U)
        lw = para_racah.LatticeWeights(
            points=tuple(k * root for k in (-2, -1, 1, 2)), z_points=None,
            weights=(mpmath.mpf(1) / 4,) * 4, h=tri.h)
        _, off = verify.gram_errors(tri, lw)
    assert off == pytest.approx(3.5, rel=1e-12)


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
    ("explicit", "explicit-vs-recurrence", para_racah, "eval_recurrence", _second,
     lambda r: NAN),
    ("bispectral", "qdiff-residual", para_racah, "qdiff_residual", _second,
     lambda r: [(NAN, r[0][1]), *r[1:]]),
    ("bispectral", "eigenvalue-degeneracy", para_racah, "qdiff_eigenvalue",
     lambda k, args: args[1] == 2, lambda r: NAN),
    ("orthogonality", "christoffel-cross-check", para_racah, "weights_from_christoffel",
     lambda k, args: True,
     lambda lw: lw.replace(weights=tuple(_nan_at_1(lw.weights)))),
    ("persymmetry", "coefficient-persymmetry", para_racah, "b_coefficient",
     lambda k, args: args[1] == 2, lambda r: NAN),
    ("isospectral", "isospectrality", spectral, "spectrum", lambda k, args: k == 3,
     _nan_at_1),
    ("qracah", "qracah-identity", connections, "monic_values", _second, _nan_at_1),
    ("dualhahn", "dual-hahn-limit", connections, "dual_hahn_limit", lambda k, args: True,
     lambda r: [r[0], (NAN, *r[1][1:]), *r[2:]]),
    ("qpk-limit", "qpk-theta-limit", para_krawtchouk, "b_coefficient", _second,
     lambda r: NAN),
]


# The same for a qpk family at alpha = 1/2.
QPK_NAN_CASES = [
    ("persymmetry", "matrix-persymmetry", spectral, "build_jacobi", lambda k, args: True,
     lambda m: spectral.SymmetricTridiagonal(tuple(_nan_at_1(m.diagonal)), m.offdiag)),
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
    for layer in ("para_racah.coef", "para_racah.eval_recurrence",
                  "para_racah.eval_explicit", "para_racah.qdiff_residual",
                  "para_racah.christoffel", "para_racah.weights",
                  "verify.gram_errors", "spectral.spectrum",
                  "connections.qracah_identity", "connections.dual_hahn"):
        assert calls.get(layer + ".calls", 0) > 0, layer


SRC = Path(__file__).resolve().parents[1] / "src" / "qortho"


def test_every_fixed_precision_is_named():
    # A fixed working precision is one of three named constants, never a
    # literal at its point of use, so a precision planner has one list to
    # replace.
    literal = re.compile(r"workdps\(\s*\d|digits\s*:\s*int\s*=\s*\d")
    found = [(path.name, number, line.strip())
             for path in sorted(SRC.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if literal.search(line)]
    assert not found
    assert (scalars.DEFAULT_EXTENDED_DIGITS, para_racah._PROMOTION_DPS,
            connections.LIMIT_DIGITS) == (50, 40, 50)
