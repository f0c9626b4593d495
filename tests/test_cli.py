import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from qortho import cli, connections, scalars, verify
from qortho.cli import main
from qortho.scalars import extended_precision

QPR = ["--kind", "qpr", "--a", "0.9", "--c", "0.7",
       "--alpha", "0.5", "--q", "0.5", "--N", "5"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_csv_contract(capsys):
    code, out, _ = run_cli(capsys, ["coeffs"] + QPR + ["--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,b,u"
    assert len(lines) == 1 + 6
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "0"


def test_coeffs_palindromic_at_half(capsys):
    code, out, _ = run_cli(capsys, ["coeffs"] + QPR + ["--format", "csv"])
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    bs = [float(r[1]) for r in rows]
    us = [float(r[2]) for r in rows[1:]]
    assert bs == pytest.approx(bs[::-1], rel=1e-12)
    assert us == pytest.approx(us[::-1], rel=1e-12)


def test_coeffs_invalid_alpha_exits_2(capsys):
    code, out, err = run_cli(capsys, [
        "coeffs", "--kind", "qpr", "--a", "0.9", "--c", "0.7",
        "--alpha", "1.5", "--q", "0.5", "--N", "5"])
    assert code == 2
    assert "alpha" in err


@pytest.mark.parametrize("argv,err_text", [
    (["coeffs", "--kind", "qpr", "--a", "0.9", "--alpha", "0.5", "--q", "0.5", "--N", "5"],
     "invalid parameters: kind 'qpr' requires --a and --c\n"),
    (["coeffs", "--kind", "qpk", "--alpha", "0.5", "--q", "0.5", "--N", "5"],
     "invalid parameters: kind 'qpk' requires --Delta\n"),
    # The output echoes only the kind's own options, so another kind's is
    # refused, with no rerun, rather than ignored.
    (["coeffs", "--kind", "qpk", "--Delta", "0.9", "--alpha", "0.5", "--q", "0.5", "--N", "3",
      "--a", "0.3"],
     "invalid parameters: kind 'qpk' does not take --a\n"),
    (["coeffs", "--kind", "qpr", "--a", "0.9", "--c", "0.7", "--Delta", "1.3", "--alpha", "0.5",
      "--q", "0.5", "--N", "3"],
     "invalid parameters: kind 'qpr' does not take --Delta\n"),
], ids=["--c", "--Delta", "qpk-takes-no---a", "qpr-takes-no---Delta"])
def test_missing_kind_parameter_exits_2(capsys, argv, err_text):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", err_text)


def test_lattice_weights_trailer(capsys):
    code, out, _ = run_cli(capsys, [
        "lattice-weights", "--kind", "qpr", "--a", "0.9", "--c", "0.7",
        "--alpha", "0.3", "--q", "0.5", "--N", "4", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,x,w"
    trailer = [line for line in lines if line.startswith("#")]
    assert any("sum_even = 0.69999999999999" in t for t in trailer)
    assert any("sum_odd = 0.29999999999999" in t for t in trailer)
    assert any(t.startswith("# gram_max_error") for t in trailer)


def test_lattice_weights_degenerate_exits_3(capsys):
    code, _, err = run_cli(capsys, [
        "lattice-weights", "--kind", "qpr", "--a", "0.9", "--c", "0.9",
        "--alpha", "0.5", "--q", "0.5", "--N", "5"])
    assert code == 3
    assert "degenerate" in err


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("family,text", [
    ("--kind qpr --a 0.7 --c 0.7", "c = a makes the spectrum doubly degenerate"),
    ("--kind qpk --Delta 1", "Delta = 1 collapses the two strands"),
], ids=["qpr-c=a", "qpk-Delta=1"])
def test_lattice_weights_refuses_coincident_strands(capsys, family, text, precision):
    code, out, err = run_cli(capsys, ["lattice-weights", *family.split(), "--alpha", "0.5",
                                      "--q", "0.5", "--N", "5", "--precision", precision])
    assert (code, out) == (3, "")
    assert err == "degenerate configuration: %s; weights are undefined\n" % text


# a / c = q^k or Delta = q^k, k != 0, with both strands long enough to hold
# the point: a q^s = c q^t (Delta q^s = q^t) for s <= j and t < N - j.
SHARED_POINT = [
    ("--a 0.9 --c 1.8 --N 5", "a q^0 = c q^1"),
    ("--a 0.9 --c 3.6 --N 6", "a q^0 = c q^2"),
    ("--a 0.9 --c 0.45 --N 6", "a q^1 = c q^0"),
    ("--a 0.9 --c 0.225 --N 7", "a q^2 = c q^0"),
    ("--kind qpk --Delta 2 --N 5", "Delta q^1 = q^0"),
    ("--kind qpk --Delta 0.25 --N 5", "Delta q^0 = q^2"),
]
SHARED_IDS = [text.replace(" ", "") for _, text in SHARED_POINT]


@pytest.mark.parametrize("precision", [[], ["--precision", "double"],
                                       ["--precision", "extended"]],
                         ids=["default", "double", "extended"])
@pytest.mark.parametrize("family,text", SHARED_POINT, ids=SHARED_IDS)
def test_strands_that_share_a_point_are_degenerate(capsys, family, text, precision):
    # Refused before any weight is formed, with no rerun; the table does not
    # need the weights and is still printed.
    argv = [*family.split(), "--alpha", "0.3", "--q", "0.5", *precision]
    assert run_cli(capsys, ["lattice-weights", *argv]) == (
        3, "", "degenerate configuration: %s puts one lattice point on both strands; "
        "weights are undefined\n" % text)
    code, out, err = run_cli(capsys, ["coeffs", *argv])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == int(family.split()[-1]) + 2


@pytest.mark.parametrize("family,text", SHARED_POINT, ids=SHARED_IDS)
def test_verify_on_strands_that_share_a_point(capsys, family, text):
    code, out, err = run_cli(capsys, ["verify", *family.split(), "--alpha", "0.3",
                                      "--q", "0.5"])
    if "--Delta" in family:
        # Delta = q^k lies outside q < Delta < 1/q, so favard-positivity fails
        # and no weight is formed.
        assert code == 4
        assert out.splitlines()[1].startswith("orthogonality/favard-positivity,fail,")
        assert err.endswith("verification failed: 2 of 4 checks\n")
    else:
        assert (code, out, err) == (
            3, "", "degenerate configuration: %s puts one lattice point on both strands; "
            "the explicit expansion is undefined\n" % text)


@pytest.mark.parametrize("family", ["--a 0.9 --c 0.1125", "--a 0.9 --c 7.2",
                                    "--kind qpk --Delta 0.125", "--kind qpk --Delta 8"])
def test_a_power_of_q_beyond_the_strands_is_not_degenerate(capsys, family):
    # At N = 5 (j = 2), a / c = q^-3 or q^3 and Delta = q^3 or q^-3 would need
    # a fourth a-strand or c-strand point: the weights certify.
    code, out, err = run_cli(capsys, ["lattice-weights", *family.split(), "--alpha", "0.3",
                                      "--q", "0.5", "--N", "5"])
    assert (code, err) == (0, "")
    assert float(out.splitlines()[-1].split(" = ")[1]) < verify.TOL_GRAM


# Two strand points z and z' with z z' = 1 give one x = (z + 1/z)/2: a c q^m
# = 1 for m < N, a^2 q^m = 1 for 0 < m < 2j, c^2 q^m = 1 for 0 < m < 2(N-j-1).
PRODUCT_ONE = [
    ("--a 1.6 --c 0.625 --q 0.5 --N 5", "a q^0 c q^0 = 1", "on both strands"),
    ("--a 3.2 --c 0.625 --q 0.5 --N 5", "a q^0 c q^1 = 1", "on both strands"),
    ("--a 2 --c 0.7 --q 0.25 --N 5", "a q^0 a q^1 = 1", "twice on one strand"),
    ("--a 0.7 --c 2 --q 0.25 --N 6", "c q^0 c q^1 = 1", "twice on one strand"),
    ("--a 0.7 --c 4 --q 0.25 --N 6", "c q^0 c q^2 = 1", "twice on one strand"),
]
PRODUCT_ONE_IDS = [text.replace(" ", "") for _, text, _ in PRODUCT_ONE]


@pytest.mark.parametrize("precision", [[], ["--precision", "extended"]],
                         ids=["default", "extended"])
@pytest.mark.parametrize("family,text,where", PRODUCT_ONE, ids=PRODUCT_ONE_IDS)
def test_strand_points_with_product_one_are_degenerate(capsys, family, text, where, precision):
    # Refused with no rerun; the table does not need the lattice and is
    # still printed.  The explicit expansion divides by (a c; q)_k, so only a
    # pair across the strands is refused there; a pair on one strand is
    # evaluated and agrees with the recurrence.
    argv = [*family.split(), "--alpha", "0.3", *precision]
    assert run_cli(capsys, ["lattice-weights", *argv]) == (
        3, "", "degenerate configuration: %s puts one lattice point %s; "
        "weights are undefined\n" % (text, where))
    code, out, err = run_cli(capsys, ["coeffs", *argv])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == int(family.split()[-1]) + 2
    code, out, err = run_cli(capsys, ["verify", "--suite", "explicit", *argv])
    if where == "on both strands":
        assert (code, out, err) == (
            3, "", "degenerate configuration: %s puts one lattice point on both strands; "
            "the explicit expansion is undefined\n" % text)
    else:
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith("explicit/explicit-vs-recurrence,pass,")


@pytest.mark.parametrize("precision", [[], ["--precision", "extended"]],
                         ids=["default", "extended"])
def test_verify_on_strand_points_with_product_one(capsys, precision):
    argv = "verify --a 1.6 --c 0.625 --alpha 0.3 --q 0.5 --N 5".split() + precision
    assert run_cli(capsys, argv) == (
        3, "", "degenerate configuration: a q^0 c q^0 = 1 puts one lattice point on both "
        "strands; the explicit expansion is undefined\n")


_SKIPPED_GRAM = ("orthogonality/gram-orthogonality,fail,nan,1.000000e-08,skipped: family is "
                 "outside the positivity region\n")
_QPK_REPORT = ("check,status,residual,tolerance,note\n"
               "orthogonality/favard-positivity,fail,1.000000e+00,5.000000e-01,\n"
               + _SKIPPED_GRAM +
               "persymmetry/persymmetry-violation,pass,7.000000e-01,1.000000e-06,"
               "expected residual above tolerance\n"
               "qpk-limit/qpk-theta-limit,pass,%s,1.000000e-06,\n")


@pytest.mark.parametrize("command,double,extended", [
    ("verify --kind qpk --Delta 2 --alpha 0.3 --q 0.5 --N 5",
     (_QPK_REPORT % "1.969751e-16", "verification failed: 2 of 4 checks\n"),
     (_QPK_REPORT % "1.345634e-46", "verification failed: 2 of 4 checks\n")),
    ("verify --suite orthogonality --a 0.9 --c 0.45 --alpha 0.3 --q 0.5 --N 6",
     ("check,status,residual,tolerance,note\n"
      "orthogonality/favard-positivity,fail,1.000000e+00,5.000000e-01,min u_n = -0.000e+00\n"
      + _SKIPPED_GRAM, "verification failed: 2 of 2 checks\n"), None),
], ids=["qpk-Delta-q^-1", "qpr-c-a-q"])
def test_a_zero_u_n_of_strands_that_share_a_point_is_not_rerun(capsys, command, double,
                                                                extended):
    # Delta q = q^0 and c = a q make some u_n exactly 0, which no precision
    # lifts: the default run prints its double report with no rerun note.
    # An explicit precision never reruns; extended prints its own report.
    assert run_cli(capsys, command.split()) == (4, *double)
    assert run_cli(capsys, command.split() + ["--precision", "extended"]) == (
        4, *(extended or double))


def test_a_product_one_off_by_a_rounding_reruns_to_its_refusal(capsys):
    # a c = 1 - 2^-53: the double u_1 reads -0, but 50 digits lift it, so
    # the default run reruns and reaches weights, which refuses the pair
    # within _DEGENERATE_TOL; both precisions exit 3.
    argv = "verify --suite orthogonality --a 3.0 --c 0.3333333333333333 --alpha 0.3 " \
           "--q 0.5 --N 1".split()
    refusal = ("degenerate configuration: a q^0 c q^0 = 1 puts one lattice point on both "
               "strands; weights are undefined\n")
    assert run_cli(capsys, argv) == (
        3, "", "note: verification failed: 2 of 2 checks; rerunning at extended:50\n" + refusal)
    assert run_cli(capsys, argv + ["--precision", "extended"]) == (3, "", refusal)


def test_degenerate_family_error_is_one_class():
    import qortho
    assert (qortho.DegenerateFamilyError is qortho.para_racah.DegenerateFamilyError
            is qortho.recurrence.DegenerateFamilyError)


def test_json_round_trip(capsys):
    argv = ["lattice-weights"] + QPR + ["--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "lattice-weights"
    assert len(doc["rows"]) == 6
    assert set(doc["rows"][0]) == {"s", "x", "w"}
    assert doc["trailer"]["sum_even"] == pytest.approx(0.5, abs=1e-9)
    assert json.loads(json.dumps(doc)) == doc


def test_byte_identical_repeat_runs(capsys):
    argv = ["verify"] + QPR + ["--format", "json", "--seed", "7"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_verify_all_passes_in_region(capsys):
    code, out, _ = run_cli(capsys, ["verify"] + QPR + ["--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,status,residual,tolerance,note"
    assert all(",pass," in line for line in lines[1:])


def test_in_box_default_verify_passes(capsys):
    # The Christoffel route reads R_N off the twisted factorisation: the
    # forward recurrence alone missed the pinned tolerance here.
    code, out, _ = run_cli(capsys, "verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.3 "
                                   "--N 9 --suite all".split())
    assert code == 0
    assert "orthogonality/christoffel-cross-check,pass," in out


@pytest.mark.parametrize("family", [
    "--a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 5",
    "--a 0.8 --c 0.55 --alpha 0.5 --q 0.45 --N 6",
    "--a 0.9 --c 0.7 --alpha 0.75 --q 0.3 --N 9 --precision extended"])
def test_verify_csv_rows_parse_to_five_fields(capsys, family):
    code, out, _ = run_cli(capsys, ("verify --kind qpr --suite all --format csv " + family).split())
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "status", "residual", "tolerance", "note"]
    assert all(len(row) == 5 for row in rows)
    assert ["qracah/qracah-identity", "at c = a sqrt(q), alpha = 1/2"] in [
        [row[0], row[4]] for row in rows]


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"] + QPR + ["--suite", "nosuch"])
    assert exc.value.code == 2


def test_verify_failing_suite_exits_4(capsys):
    code, out, err = run_cli(capsys, [
        "verify", "--kind", "qpr", "--a", "0.9", "--c", "0.2",
        "--alpha", "0.5", "--q", "0.5", "--N", "4",
        "--suite", "orthogonality", "--format", "csv"])
    assert code == 4
    assert "verification failed" in err
    assert any(",fail," in line for line in out.splitlines())


def test_verify_persymmetry_violation_is_expected(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "--kind", "qpr", "--a", "0.9", "--c", "0.7",
        "--alpha", "0.3", "--q", "0.5", "--N", "5",
        "--suite", "persymmetry", "--format", "csv"])
    assert code == 0
    assert "persymmetry-violation,pass" in out


def test_qpk_kind_suites(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "--kind", "qpk", "--Delta", "1.3",
        "--alpha", "0.5", "--q", "0.5", "--N", "4", "--format", "csv"])
    assert code == 0
    assert "orthogonality/gram-diagonal,pass" in out
    assert "persymmetry/matrix-persymmetry,pass" in out


@pytest.mark.parametrize("suite", ["bispectral", "explicit", "isospectral", "qracah",
                                   "dualhahn"])
def test_qpk_rejects_qpr_only_suite(capsys, suite):
    code, out, err = run_cli(capsys, [
        "verify", "--kind", "qpk", "--Delta", "1.3",
        "--alpha", "0.5", "--q", "0.5", "--N", "4", "--suite", suite])
    assert (code, out, err) == (
        2, "", "invalid parameters: suite %r is not defined for kind 'qpk'\n" % suite)


def test_env_precision_override(capsys, monkeypatch):
    monkeypatch.setenv("QORTHO_PRECISION", "extended:30")
    code, out, _ = run_cli(capsys, ["coeffs"] + QPR + ["--format", "csv"])
    assert code == 0
    value = out.strip().splitlines()[1].split(",")[1]
    assert len(value) > 20


# With no precision given, a command runs in double and reruns once at 50
# digits when double is refused for a reason a higher precision might lift.
RERUN = "; rerunning at extended:50\n"
# The N = 9 command of perfbench's KNOWN_DEFECT: in double its
# coefficient-persymmetry residual is 1.59e-12, above the absolute 1e-12.
PERSYM_DEFECT = "verify --a 0.2137 --c 0.4430 --q 0.3232 --N 9 --alpha 0.5 --suite all".split()


def test_default_prints_a_certified_double_run_as_it_is(capsys):
    argv = "coeffs --a 0.9 --c 0.7 --alpha 0.5 --q 0.5 --N 12".split()
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, argv + ["--precision", "double"])


def test_default_reruns_a_refused_double_run_at_50_digits(capsys):
    code, out, err = run_cli(capsys, PERSYM_DEFECT + ["--format", "json"])
    assert (code, err) == (0, "note: verification failed: 1 of 17 checks" + RERUN)
    assert json.loads(out)["precision"] == "extended:50"


@pytest.mark.parametrize("argv,refusal", [
    ("lattice-weights --a 0.9 --c 0.7 --alpha 0.3 --q 0.2 --N 60",
     "numeric underflow or zero denominator at double precision"),
    ("verify --a 0.9 --c 0.7 --alpha 0.3 --q 0.2 --N 30 --suite explicit",
     "numeric overflow at double precision"),
    ("lattice-weights --a 1.1522 --c 2.6228 --alpha 0.5 --q 0.0844 --N 17",
     "non-finite output: 21 of 39 printed values are nan or inf"),
    ("lattice-weights --a 0.0550 --c 1.6651 --alpha 0.5 --q 0.4404 --N 23",
     "orthogonality not certified: gram_max_error = 3.273e-02 exceeds 1e-08"),
], ids=["underflow", "overflow", "non-finite", "gram"])
def test_a_rerun_prints_the_extended_output_after_one_note(capsys, argv, refusal):
    code, out, err = run_cli(capsys, argv.split())
    assert (code, err) == (0, "note: " + refusal + RERUN)
    assert (code, out, "") == run_cli(capsys, argv.split() + ["--precision", "extended"])


@pytest.mark.parametrize("suite,failed", [("all", "3 of 10"), ("isospectral", "1 of 1")])
def test_a_family_outside_the_positivity_region_is_not_rerun(capsys, suite, failed):
    # favard-positivity fails, and the checks that need a positive family
    # are skipped: a fact of the parameters at any precision.
    argv = "verify --a 2.3135 --c 1.626 --alpha 0.75 --q 0.2465 --N 8 --suite".split() + [suite]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (4, "verification failed: %s checks\n" % failed)
    assert ",fail,nan," in out


@pytest.mark.parametrize("flag,env", [(["--precision", "double"], None), ([], "double")],
                         ids=["flag", "env"])
def test_a_given_precision_never_reruns(capsys, monkeypatch, flag, env):
    if env:
        monkeypatch.setenv("QORTHO_PRECISION", env)
    code, out, err = run_cli(capsys, PERSYM_DEFECT + flag)
    assert (code, err) == (4, "verification failed: 1 of 17 checks\n")
    assert "persymmetry/coefficient-persymmetry,fail," in out


OVERFLOW = "numeric overflow at double precision"
UNDERFLOW = "numeric underflow or zero denominator at double precision"


@pytest.mark.parametrize("argv,refusal,detail", [
    ("verify --a 1e200 --c 1e-200 --alpha 0.3 --q 0.5 --N 5 --suite qpk-limit", OVERFLOW,
     "a value exceeds the binary64 range; rerun with --precision extended or extended:P"),
    ("verify --a 1e-200 --c 1e200 --alpha 0.3 --q 0.5 --N 5 --suite qpk-limit", UNDERFLOW,
     "a / c is outside the binary64 range"),
    ("coeffs --a 1e400 --c 0.7 --alpha 0.5 --q 0.5 --N 3", OVERFLOW,
     "a value exceeds the binary64 range; rerun with --precision extended or extended:P"),
    ("coeffs --a 1e-400 --c 0.7 --alpha 0.5 --q 0.5 --N 3", UNDERFLOW,
     "1e-400 is outside the binary64 range"),
], ids=["qpk-limit-overflow", "qpk-limit-underflow", "decimal-overflow", "decimal-underflow"])
def test_a_value_beyond_binary64_is_refused_by_its_range(capsys, argv, refusal, detail):
    # Not invalid parameters: a default run reruns at 50 digits after one
    # note, and a binary64 run names the range.
    code, out, err = run_cli(capsys, argv.split())
    assert (code, err) == (0, "note: " + refusal + RERUN)
    assert (code, out, "") == run_cli(capsys, argv.split() + ["--precision", "extended"])
    assert run_cli(capsys, argv.split() + ["--precision", "double"]) == (
        2, "", "%s: %s\n" % (refusal, detail))


# At q = 0.999 the a-exponent is 1608.63.  The dual-Hahn steps start at
# sqrt(q) = 1 - 2^-16, the first k >= 8 with 2^k > 32 |e|, and the limit
# certifies; a fixed k = 6..16 schedule did not contract here.
LARGE_EXPONENT = "verify --a 0.2 --c 0.19995 --alpha 0.5 --q 0.999 --N 5".split()
SKIPPED_DUALHAHN = ("dualhahn/dual-hahn-limit,fail,nan,1.000000e-04,"
                    "skipped: extrapolation estimates are not contracting at a-exponent %s")


def assert_dual_hahn_certified(out, exponent):
    [line] = [line for line in out.splitlines() if line.startswith("dualhahn/")]
    name, status, residual, *rest = line.split(",")
    assert (name, status, rest) == (
        "dualhahn/dual-hahn-limit", "pass", ["1.000000e-04", "a-exponent " + exponent])
    assert float(residual) <= 1e-12


@pytest.mark.parametrize("suite,note,checks", [
    ([], "note: verification failed: 1 of 17 checks" + RERUN, 17),
    (["--suite", "all"], "note: verification failed: 1 of 17 checks" + RERUN, 17),
    (["--suite", "dualhahn"], "", 1)], ids=["default", "all", "dualhahn"])
def test_a_dual_hahn_limit_at_a_large_exponent_passes_its_line(capsys, suite, note, checks):
    # A positive family: every suite is printed.  The full run reruns for
    # its eigenvalue-degeneracy line, which fails in double only.
    code, out, err = run_cli(capsys, LARGE_EXPONENT + suite)
    assert (code, err) == (0, note)
    lines = out.splitlines()
    assert len(lines) == 1 + checks and ",fail," not in out
    assert_dual_hahn_certified(out, "1608.63")


def test_a_skipped_line_does_not_hide_a_precision_bound_failure(capsys, monkeypatch):
    # A limit that does not contract is skipped at any precision, so a
    # skipped line alone is never rerun; beside eigenvalue-degeneracy, which
    # fails in double only, the run reruns and fails on the skipped line.
    def not_contracting(*args):
        raise connections.ExtrapolationError("extrapolation estimates are not contracting")
    monkeypatch.setattr(connections, "dual_hahn_limit", not_contracting)
    skipped = SKIPPED_DUALHAHN % "1608.63"
    code, out, err = run_cli(capsys, LARGE_EXPONENT + ["--precision", "double"])
    assert (code, err) == (4, "verification failed: 2 of 17 checks\n")
    assert "bispectral/eigenvalue-degeneracy,fail," in out and skipped in out.splitlines()
    code, out, err = run_cli(capsys, LARGE_EXPONENT)
    assert (code, err) == (4, "note: verification failed: 2 of 17 checks" + RERUN
                           + "verification failed: 1 of 17 checks\n")
    assert [line for line in out.splitlines() if ",fail," in line] == [skipped]
    code, out, err = run_cli(capsys, LARGE_EXPONENT + ["--suite", "dualhahn"])
    assert (code, out.splitlines()[1:], err) == (
        4, [skipped], "verification failed: 1 of 1 checks\n")


# alpha = 5e-324 underflows u_1 = alpha (1 - alpha) (...) to 0 in binary64;
# at 50 digits it is 1.890e-327 and the family is positive.
UNDERFLOWED_U = "verify --a 0.9 --c 0.8 --alpha 5e-324 --q 0.5 --N 1 --suite".split()


def test_an_underflowed_u_reruns_at_50_digits(capsys):
    argv = UNDERFLOWED_U + ["orthogonality"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, "") == run_cli(capsys, argv + ["--precision", "extended"])
    assert (code, err) == (0, "note: verification failed: 2 of 2 checks" + RERUN)
    assert out.splitlines()[1] == ("orthogonality/favard-positivity,pass,0.000000e+00,"
                                   "5.000000e-01,min u_n = 1.890e-327")
    assert len(out.splitlines()) == 8


def test_an_underflowed_u_is_refused_in_double(capsys):
    code, out, err = run_cli(capsys, UNDERFLOWED_U + ["orthogonality", "--precision", "double"])
    assert (code, err) == (4, "verification failed: 2 of 2 checks\n")
    assert out.splitlines()[1] == ("orthogonality/favard-positivity,fail,1.000000e+00,"
                                   "5.000000e-01,min u_n = 0.000e+00")


@pytest.mark.parametrize("suite,refusal", [
    ("all", UNDERFLOW), ("isospectral", "verification failed: 1 of 1 checks")])
def test_an_underflowed_u_certifies_its_spectrum_at_50_digits(capsys, suite, refusal):
    # The rerun's Jacobi matrix takes sqrt(u_1), about 4.3e-164, from the
    # 50-digit u_1, whose float is 0.
    argv = UNDERFLOWED_U + [suite]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, "") == run_cli(capsys, argv + ["--precision", "extended"])
    assert (code, err) == (0, "note: " + refusal + RERUN)
    assert "isospectral/spectrum-vs-lattice,pass," in out


# Outside the positivity region (min u_n = -1.695), the q-difference
# equation and the explicit expression still hold: their failures in double
# rerun, and at 50 digits only favard-positivity and the lines it skips fail.
OUTSIDE_MEASURED = ("verify --suite all --kind qpr --a 5.846 --c 6.961 --alpha 0.07499 "
                    "--q 0.8346 --N 36").split()


def test_a_measured_failure_outside_the_positivity_region_reruns(capsys):
    code, out, err = run_cli(capsys, OUTSIDE_MEASURED)
    failed = "verification failed: 3 of 10 checks\n"
    assert (code, out, failed) == run_cli(capsys, OUTSIDE_MEASURED + ["--precision", "extended"])
    assert (code, err) == (4, "note: verification failed: 5 of 10 checks" + RERUN + failed)
    assert [line.split(",")[0] for line in out.splitlines() if ",fail," in line] == [
        "orthogonality/favard-positivity", "orthogonality/gram-orthogonality",
        "isospectral/isospectrality"]


def test_a_point_where_every_term_is_an_exact_zero_reports_its_check(capsys):
    # At 48 digits R_32 rounds to an exact 0 at three bispectral points, so
    # each term of its q-difference equation and their scale are 0 there:
    # residual 0, not a 0 / 0 refusal (exit 2).
    argv = ("verify --suite all --kind qpr --a 0.00278986 --c 0.380227 --alpha 0.856909 "
            "--q 0.592861 --N 64 --precision extended:48").split()
    assert run_cli(capsys, argv) == (4, """\
check,status,residual,tolerance,note
orthogonality/favard-positivity,fail,1.000000e+00,5.000000e-01,min u_n = -2.075e+19
orthogonality/gram-orthogonality,fail,nan,1.000000e-08,skipped: family is outside the positivity region
bispectral/qdiff-residual,fail,1.536946e+00,1.000000e-09,
bispectral/eigenvalue-degeneracy,pass,0.000000e+00,1.000000e-14,
persymmetry/persymmetry-violation,pass,1.728129e+19,1.000000e-06,expected residual above tolerance
explicit/explicit-vs-recurrence,fail,1.181110e+00,1.000000e-08,
isospectral/isospectrality,fail,nan,1.000000e-09,skipped: Jacobi matrix is not symmetrizable
qracah/qracah-identity,pass,4.828036e-46,1.000000e-08,"at c = a sqrt(q), alpha = 1/2"
dualhahn/dual-hahn-limit,pass,1.133548e-13,1.000000e-04,a-exponent 11.2506
qpk-limit/qpk-theta-limit,pass,4.379168e-46,1.000000e-06,
""", "verification failed: 5 of 10 checks\n")


@pytest.mark.parametrize("low,note", [
    ("1.890e-327", "1.890e-327"), ("-1.2345e-400", "-1.234e-400"), ("0", "0.000e+00"),
    ("2.5e-310", "2.500e-310"), ("3.14159e-300", "3.142e-300"), ("-0.5", "-5.000e-01")])
def test_the_favard_note_keeps_the_digits_of_a_value_below_binary64(low, note):
    # A value whose float is normal prints as "%.3e" % float, as before.
    with extended_precision(50):
        assert verify._format_e3(Decimal(low)) == note
    if float(low) == 0 or abs(float(low)) >= sys.float_info.min:
        assert verify._format_e3(float(low)) == "%.3e" % float(low)


@pytest.mark.parametrize("high,note", [
    ("-1.7681e597", "-1.768e+597"), ("2.5e309", "2.500e+309"), ("9.9999e999", "1.000e+1000")])
def test_the_favard_note_keeps_the_digits_of_a_value_above_binary64(high, note):
    # float() of these is an infinity; a Decimal infinity still prints as one.
    with extended_precision(50):
        assert verify._format_e3(Decimal(high)) == note
        assert verify._format_e3(Decimal("-Infinity")) == "-inf"


def test_the_favard_note_of_a_u_n_above_binary64_is_read_from_its_digits(capsys):
    code, out, err = run_cli(capsys, "verify --kind qpr --a 1e300 --c 1e-160 --alpha 0.3 "
                             "--q 0.01 --N 12".split())
    assert code == 4
    assert err.startswith("note: numeric overflow at double precision; rerunning")
    assert out.splitlines()[1] == ("orthogonality/favard-positivity,fail,1.000000e+00,"
                                   "5.000000e-01,min u_n = -1.768e+597")


@pytest.mark.parametrize("a,c,exponent,note", [
    ("1e400", "0.9e400", "-1328.77", ""), ("1e-400", "0.9e-400", "1328.77", ""),
    ("1e-400", "0.9e-400", "1328.77", "note: " + UNDERFLOW + RERUN)],
    ids=["1e400", "1e-400", "1e-400-default"])
def test_the_dual_hahn_exponent_is_taken_in_the_family_scalars(capsys, a, c, exponent, note):
    # Finite at 50 digits, these are not invalid parameters: the exponent is
    # read at the family's precision, and the limit certifies.
    argv = ("verify --a %s --c %s --alpha 0.5 --q 0.5 --N 5 --suite dualhahn" % (a, c)).split()
    given = [] if note else ["--precision", "extended"]
    code, out, err = run_cli(capsys, argv + given)
    assert (code, err) == (0, note)
    assert len(out.splitlines()) == 2
    assert_dual_hahn_certified(out, exponent)


def test_a_dual_hahn_exponent_beyond_the_step_resolution_is_skipped(capsys):
    # q = 1 - 1e-35 puts the exponent at 6.9e34 > 2^106: the finest step
    # would keep fewer than 53 bits of 1 - sqrt(q) at 50 digits.
    argv = ("verify --a 0.5 --c 0.4999 --alpha 0.5 --q 0.99999999999999999999999999999999999"
            " --N 3 --suite dualhahn --precision extended").split()
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (4, "verification failed: 1 of 1 checks\n")
    assert out.splitlines()[1:] == [
        "dualhahn/dual-hahn-limit,fail,nan,1.000000e-04,skipped: step families are not"
        " resolved at 50 digits at a-exponent 6.93147e+34"]


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_no_benchmark_table_or_process_op_reruns(capsys, monkeypatch):
    # A rerun adds a 50-digit run to the double one, which the in-box
    # benchmark workloads would read as a slowdown: the first blocks of
    # cli-proc and tables-box at seeds 1-4 (336 operations) each run once,
    # in double.
    workloads = _load_workloads()
    runs = []
    original = cli._run
    monkeypatch.setattr(cli, "_run", lambda args, precision: runs.append(precision)
                        or original(args, precision))
    ops = [op for name in ("cli-proc", "tables-box") for seed in (1, 2, 3, 4)
           for op in next(workloads.blocks(name, seed))]
    assert len(ops) == 336
    assert [run_cli(capsys, op)[::2] for op in ops] == [(0, "")] * len(ops)
    assert runs == ["double"] * len(ops)


# At this parameter set the double-precision weights are all NaN.
NAN_WEIGHTS = ["--kind", "qpr", "--a", "0.9", "--c", "0.7", "--alpha", "0.5",
               "--q", "0.5", "--N", "64", "--precision", "double", "--format", "csv"]


def test_max_keep_nan():
    nan = float("nan")
    assert verify.max_keep_nan(1.0, 2.0) == 2.0
    assert verify.max_keep_nan(2.0, 1.0) == 2.0
    assert verify.max_keep_nan(0.0, nan) != verify.max_keep_nan(0.0, nan)
    assert verify.max_keep_nan(nan, 0.0) != verify.max_keep_nan(nan, 0.0)


def test_nan_weights_fail_gram_checks(capsys):
    code, out, _ = run_cli(capsys, ["verify"] + NAN_WEIGHTS + ["--suite", "orthogonality"])
    assert code == 4
    status = dict(line.split(",")[:2] for line in out.strip().splitlines()[1:])
    assert status["orthogonality/gram-diagonal"] == "fail"
    assert status["orthogonality/gram-off-diagonal"] == "fail"


def test_nan_weights_gram_trailer_is_not_zero(capsys):
    code, out, err = run_cli(capsys, ["lattice-weights"] + NAN_WEIGHTS)
    # The table is still printed, but NaN output is refused.
    assert code == 4
    assert "non-finite output" in err
    trailer = out.strip().splitlines()[-1]
    assert trailer == "# gram_max_error = nan"


def test_uncertified_gram_trailer_exits_4(capsys):
    # A positive family whose closed-form weights, at 15 digits, are finite
    # but good to about six: the Gram diagonal is above TOL_GRAM, so the
    # table is printed and refused.
    code, out, err = run_cli(capsys, [
        "lattice-weights", "--kind", "qpr", "--a", "0.95", "--c", "0.2", "--alpha", "0.5",
        "--q", "0.2", "--N", "34", "--precision", "extended:15"])
    assert code == 4
    assert "orthogonality not certified" in err
    assert out.strip().splitlines()[-1] == "# gram_max_error = 3.428e-07"


def test_the_twist_alone_makes_lattice_weights_exit_4(capsys, monkeypatch):
    # The twisted vectors hide a point that is not a zero of R_{N+1} from the
    # Gram errors, so the twist enters gram_max_error by itself.
    original = cli.lattice_vectors
    monkeypatch.setattr(cli, "lattice_vectors",
                        lambda b, u, points: (original(b, u, points)[0], 2 * verify.TOL_GRAM))
    code, out, err = run_cli(capsys, ["lattice-weights"] + QPR)
    assert code == 4
    assert "orthogonality not certified: gram_max_error = 2.000e-08" in err
    assert out.strip().splitlines()[-1] == "# gram_max_error = 2.000e-08"


LARGE_N_EXPLICIT = [(N, q) for N in (20, 30, 40, 60) for q in ("0.2", "0.3", "0.5")]
# Default explicit runs in which a double term magnitude overflows.
EXPLICIT_OVERFLOWS = {(30, "0.2"), (40, "0.2"), (40, "0.3"), (60, "0.2"), (60, "0.3"), (60, "0.5")}
OVERFLOW_NOTE = "note: numeric overflow at double precision" + RERUN


@pytest.mark.parametrize("argv,err", [
    ("lattice-weights --a 0.9 --c 0.7 --alpha 0.5 --q 0.5 --N 30 --precision double", ""),
    ("verify --a 0.9 --c 0.7 --alpha 0.5 --q 0.5 --N 40 --precision double "
     "--suite orthogonality", ""),
    ("verify --a 0.9 --c 0.7 --alpha 0.5 --q 0.5 --N 60 --precision extended:20 "
     "--suite orthogonality", ""),
    *(("verify --a 0.9 --c 0.7 --alpha 0.3 --q %s --N %d --suite explicit" % (q, N),
       OVERFLOW_NOTE if (N, q) in EXPLICIT_OVERFLOWS else "") for N, q in LARGE_N_EXPLICIT),
    # y_0^2 underflows in double.
    ("verify --a 0.9 --c 0.7 --alpha 0.3 --q 0.2 --N 60 --suite all",
     "note: numeric underflow or zero denominator at double precision" + RERUN),
], ids=["lattice-weights-30-double", "verify-40-double", "verify-60-extended20",
        *("explicit-%d-%s" % case for case in LARGE_N_EXPLICIT), "all-60-0.2"])
def test_large_n_runs_are_certified(capsys, argv, err):
    # Forward recurrence at these lattices follows the dominant solution past
    # n ~ N/2; the twisted values do not.  The explicit expansion cancels
    # from N = 20 on: each value reruns at the digits its cancellation cost,
    # about 660 at N = 60, q = 0.2.  With no precision flag a run is certified
    # in double, or refused there and rerun at 50 digits after one note.
    assert run_cli(capsys, argv.split())[::2] == (0, err)


QPK_DOUBLE = ["--kind", "qpk", "--Delta", "1.3", "--alpha", "0.5", "--precision", "double"]


@pytest.mark.parametrize("command", [["lattice-weights"], ["verify", "--suite", "orthogonality"]],
                         ids=["lattice-weights", "verify"])
def test_gram_forms_no_normalization_product(capsys, command):
    # h_n h_m underflows in double at these families although each h_n is a
    # normal double; Gram reads the scaled vectors and only the sign of h_n.
    # At q = 0.3, N = 30 the Gram errors read about 3e-8 while b_n and u_n
    # were summed in the paper's form, which cancels or underflows there.
    for q, N in (("0.5", "40"), ("0.3", "30")):
        assert run_cli(capsys, command + QPK_DOUBLE + ["--q", q, "--N", N])[::2] == (0, "")


@pytest.mark.parametrize("N", ["8", "9"])
@pytest.mark.parametrize("family", [["--kind", "qpr", "--a", "0.9", "--c", "0.7"],
                                    ["--kind", "qpk", "--Delta", "1.3"]], ids=["qpr", "qpk"])
def test_signed_measures_keep_their_gram_certificate(capsys, family, N):
    # Outside the positivity region some h_n < 0, and Gram is read against
    # sign(h_n).
    argv = family + ["--alpha", "0.5", "--q", "0.8", "--N", N]
    code, out, _ = run_cli(capsys, ["verify", "--suite", "orthogonality"] + argv)
    assert code == 4
    assert out.splitlines()[1].startswith("orthogonality/favard-positivity,fail,")
    code, out, err = run_cli(capsys, ["lattice-weights"] + argv)
    assert (code, err) == (0, "")
    assert float(out.splitlines()[-1].split(" = ")[1]) <= verify.TOL_GRAM


# Exit codes in double at alpha 1/2 (a 0.9, c 0.7 and Delta 1.3), one string
# per q in 0.2, 0.3 and 0.5: lattice-weights, verify --suite orthogonality
# and, for qpr, verify --suite isospectral and verify --suite explicit.  2 is
# a double overflow (in the explicit suite a term magnitude or recurrence
# value beyond the binary64 range) or a y_0^2 that underflows.
LARGE_N_EXIT_CODES = {
    ("qpr", 20): ("0000", "0000", "0000"),
    ("qpr", 30): ("2202", "0000", "0000"),
    ("qpr", 40): ("2202", "2202", "0000"),
    ("qpr", 60): ("2202", "2202", "2202"),
    ("qpk", 20): ("00", "00", "00"),
    ("qpk", 30): ("22", "00", "00"),
    ("qpk", 40): ("22", "22", "00"),
    ("qpk", 60): ("22", "22", "22"),
}


@pytest.mark.parametrize("kind,N", LARGE_N_EXIT_CODES, ids=lambda v: str(v))
def test_large_n_exit_codes_in_double(capsys, kind, N):
    family = (["--kind", "qpr", "--a", "0.9", "--c", "0.7"] if kind == "qpr"
              else ["--kind", "qpk", "--Delta", "1.3"])
    commands = [["lattice-weights"], ["verify", "--suite", "orthogonality"]]
    if kind == "qpr":
        commands += [["verify", "--suite", "isospectral"], ["verify", "--suite", "explicit"]]
    codes = tuple("".join(
        str(run_cli(capsys, command + family + ["--alpha", "0.5", "--q", q, "--N", str(N),
                                                "--precision", "double"])[0])
        for command in commands) for q in ("0.2", "0.3", "0.5"))
    assert codes == LARGE_N_EXIT_CODES[kind, N]


def _reject_constant(name):
    raise ValueError("not strict JSON: %s" % name)


@pytest.mark.parametrize("argv,field", [
    ("verify --a 0.9 --c 0.2 --alpha 0.5 --q 0.5 --N 4 --suite orthogonality --format json",
     lambda doc: [c["residual"] for c in doc["checks"]]),
    ("lattice-weights --a 0.9 --c 0.7 --alpha 0.5 --q 0.5 --N 64 --precision double "
     "--format json", lambda doc: [r["w"] for r in doc["rows"]]),
], ids=["verify", "lattice-weights"])
def test_json_output_is_strict_with_non_finite_values(capsys, argv, field):
    code, out, _ = run_cli(capsys, argv.split())
    assert code == 4
    doc = json.loads(out, parse_constant=_reject_constant)
    values = field(doc)
    assert "nan" in values
    assert all(isinstance(v, float) or v in ("nan", "inf", "-inf") for v in values)


_OVERFLOW_TEXT = ("numeric overflow at double precision: a value exceeds the "
                  "binary64 range; rerun with --precision extended or extended:P\n")


@pytest.mark.parametrize("command", ["verify", "lattice-weights"])
def test_overflow_is_not_invalid_parameters(capsys, command):
    argv = [command, "--kind", "qpr", "--a", "0.9", "--c", "0.7", "--alpha", "0.5",
            "--q", "0.5", "--N", "60", "--precision", "double"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", _OVERFLOW_TEXT)


# a / c = 1e460 is inf in binary64, a denominator parameter of the explicit
# expansion's series: an overflow the 50-digit rerun lifts.
_INFINITE_PARAMETER = ["verify", "--kind", "qpr", "--a", "1e300", "--c", "1e-160",
                       "--alpha", "0.3", "--q", "0.01", "--N", "12"]


def test_an_infinite_series_parameter_is_an_overflow(capsys):
    code, out, err = run_cli(capsys, _INFINITE_PARAMETER + ["--precision", "double"])
    assert (code, out, err) == (2, "", _OVERFLOW_TEXT)


def test_an_infinite_series_parameter_reruns_at_50_digits(capsys):
    code, out, err = run_cli(capsys, _INFINITE_PARAMETER)
    assert code == 4
    assert err == ("note: numeric overflow at double precision; rerunning at extended:50\n"
                   "verification failed: 5 of 10 checks\n")
    assert [line.split(",")[0] for line in out.splitlines()[1:]
            if line.split(",")[1] == "fail"] == [
        "orthogonality/favard-positivity", "orthogonality/gram-orthogonality",
        "persymmetry/persymmetry-violation", "explicit/explicit-vs-recurrence",
        "isospectral/isospectrality"]


@pytest.mark.parametrize("command", ["verify", "lattice-weights"])
def test_qpk_overflow_names_the_precision_and_the_remedy(capsys, command):
    argv = [command, "--kind", "qpk", "--Delta", "1.3", "--alpha", "0.5",
            "--q", "0.5", "--N", "60", "--precision", "double"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", _OVERFLOW_TEXT)


@pytest.mark.parametrize("command", ["coeffs", "lattice-weights", "verify"])
def test_underflow_is_not_invalid_parameters(capsys, command):
    # a = 1e-160 and c = 1e-170 are valid; their product a c, a denominator
    # of every truncation limit, underflows to zero in binary64.
    argv = [command, "--kind", "qpr", "--a", "1e-160", "--c", "1e-170", "--alpha", "0.5",
            "--q", "0.5", "--N", "5", "--precision", "double"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "invalid parameters" not in err
    assert err == ("numeric underflow or zero denominator at double precision: "
                   "float division by zero\n")


@pytest.mark.parametrize("command", [["lattice-weights"], ["verify", "--suite", "orthogonality"]],
                         ids=["lattice-weights", "verify"])
def test_an_underflowed_first_component_is_refused(capsys, command):
    # At N = 70 some lattice point's y_0 is about 4e-184, so y_0^2 underflows
    # to 0 in double: Gram would divide by it, and the run refuses.
    code, out, err = run_cli(capsys, command + [
        "--kind", "qpr", "--a", "0.9", "--c", "0.7", "--alpha", "0.5", "--q", "0.5",
        "--N", "70", "--precision", "double"])
    assert (code, out) == (2, "")
    assert err == ("numeric underflow or zero denominator at double precision: "
                   "float division by zero\n")


# a = 1 or c = 1 puts the zero 1 - x^2 in that strand's den0 and in its
# (x^2; q)_s for every s >= 1; the strand routine cancels the two.
_UNIT_STRAND = ["lattice-weights --a 1 --c 0.7 --alpha 0.3 --q 0.5 --N 5",
                "verify --a 0.8 --c 1 --alpha 0.3 --q 0.5 --N 5",
                "verify --a 1 --c 0.6 --alpha 0.3 --q 0.5 --N 6"]


@pytest.mark.parametrize("precision", [[], ["--precision", "extended"]],
                         ids=["default", "extended"])
@pytest.mark.parametrize("argv", _UNIT_STRAND)
def test_a_strand_parameter_of_1_certifies_without_a_rerun(capsys, argv, precision):
    code, out, err = run_cli(capsys, argv.split() + precision)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    if argv.startswith("verify"):
        assert [line.split(",")[1] for line in lines[1:]] == ["pass"] * 16
        # log(1) / log(q) is -0; the note reads 0.
        assert any(line.endswith(",a-exponent 0") for line in lines) == ("--a 1 " in argv)
    elif precision:
        assert lines[-1] == "# gram_max_error = 8.900e-51"
    else:
        assert lines[1:3] == ["0,1,0.36470204081632651", "1,1.0642857142857143,0.25829706717123951"]
        assert lines[-1] == "# gram_max_error = 5.794e-16"


@pytest.mark.parametrize("precision", [[], ["--precision", "extended"]],
                         ids=["default", "extended"])
def test_the_even_c_strand_at_c_1_keeps_its_signed_measure(capsys, precision):
    code, out, err = run_cli(capsys, "lattice-weights --a 2 --c 1 --alpha 0.3 --q 0.2 --N 8"
                             .split() + precision)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:] if not line.startswith("#")]
    w = [float(row[2]) for row in rows]
    assert float(rows[1][1]) == 1 and w[1] > 0  # the c-strand's point s = 0
    assert sum(v < 0 for v in w) == 7
    assert sum(w[0::2]) == pytest.approx(0.7, abs=1e-14)
    assert sum(w[1::2]) == pytest.approx(0.3, abs=1e-14)


def test_a_decimal_a_whose_square_rounds_to_1_reads_as_a_1(capsys):
    family = ["--c", "0.7", "--alpha", "0.3", "--q", "0.5", "--N", "5", "--precision", "extended"]
    near = run_cli(capsys, ["lattice-weights", "--a", "1." + "0" * 57 + "1"] + family)
    assert near == run_cli(capsys, ["lattice-weights", "--a", "1"] + family)
    assert near[0] == 0 and near[2] == ""


def test_zero_denominator_without_a_message_names_the_precision(capsys):
    # Delta q^(j+1) = 1 (Delta = 4 at q = 1/2, N = 2, outside the positivity
    # region) is an exact zero of the denominator of qpk's closed-form
    # weights' normalization; Decimal signals DivisionByZero, whose own text
    # is the list of its conditions.
    argv = ["lattice-weights", "--kind", "qpk", "--Delta", "4",
            "--alpha", "0.5", "--q", "0.5", "--N", "2", "--precision", "extended"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err == ("numeric underflow or zero denominator at extended:50 precision: "
                   "division by zero\n")


@pytest.mark.parametrize("value", ["0", "3", "1.5", "123456", "1e-7", "1e49", "1e50",
                                   "-2.5e-300"])
def test_extended_values_print_in_the_shape_of_mpmath_nstr(value):
    # Exact in both types at 50 digits, so only the rendering can differ.
    import mpmath
    with extended_precision(50), mpmath.workdps(50):
        assert scalars.format_scalar(Decimal(value), 50) == mpmath.nstr(mpmath.mpf(value), 50)


EXTENDED_OVERFLOW = ("numeric overflow at extended:50 precision: "
                     "a value exceeds 10^999999\n")


@pytest.mark.parametrize("command", ["coeffs", "lattice-weights", "verify"])
@pytest.mark.parametrize("a", ["1e999990", "1e-999990"])
def test_a_parameter_near_the_decimal_exponent_limit_is_an_overflow(capsys, monkeypatch,
                                                                    command, a):
    # a^2 leaves Decimal's exponent range (mpmath's has no such limit): the
    # Overflow signal is a numeric overflow, not invalid parameters.
    monkeypatch.delenv("QORTHO_PRECISION", raising=False)
    argv = [command, "--a", a, "--c", "0.7", "--alpha", "0.5", "--q", "0.5", "--N", "3"]
    assert run_cli(capsys, argv + ["--precision", "extended"]) == (2, "", EXTENDED_OVERFLOW)
    # A default run is refused by binary64's range first, then reruns.
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    note, rest = err.split("\n", 1)
    assert note.startswith("note: numeric ") and note.endswith("; rerunning at extended:50")
    assert rest == EXTENDED_OVERFLOW


@pytest.mark.parametrize("operation,err", [
    (lambda: Decimal(1) / 0, "numeric underflow or zero denominator at extended:50 precision: "
                             "division by zero"),
    (lambda: Decimal(0) / 0, "numeric underflow or zero denominator at extended:50 precision: "
                             "division by zero"),
    (lambda: Decimal("1e-999990") ** 2, "numeric underflow or zero denominator at "
                                        "extended:50 precision: a value falls below "
                                        "10^-999999"),
    (lambda: Decimal("1e999990") ** 2, EXTENDED_OVERFLOW.strip()),
    (lambda: Decimal(-1).sqrt(), "invalid parameters: invalid operation"),
], ids=["division-by-zero", "zero-over-zero", "underflow", "overflow", "invalid"])
def test_each_decimal_signal_keeps_the_exit_code_contract(capsys, monkeypatch, operation,
                                                          err):
    # Whatever Decimal operation signals inside a command: a range signal is
    # exit 2 with its refusal's name, an invalid operation exit 2 as invalid
    # parameters.
    def command(args, prec):
        with prec.context():
            operation()
    monkeypatch.setattr(cli, "cmd_coeffs", command)
    code, out, text = run_cli(capsys, ["coeffs"] + QPR + ["--precision", "extended"])
    assert (code, out, text) == (2, "", err + "\n")


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("a,c", [("0.125", "0.25"), ("1", "0.25"), ("8", "0.5")],
                         ids=["a=cq^j", "c=aq^(j+1)", "acq^(2j)=1"])
def test_even_n_normalization_zeros_are_refused_by_name(capsys, a, c, precision):
    # At N = 2, q = 1/2: a / c = q, the edge of the positivity region, and
    # c = a q^2 and a c q^2 = 1, both outside it, are the three exact zeros of
    # the denominator (a - c q^j)(1 - a c q^(2j))(c - a q^(j+1)) of the
    # weights' normalization.
    argv = ["lattice-weights", "--kind", "qpr", "--a", a, "--c", c,
            "--alpha", "0.5", "--q", "0.5", "--N", "2", "--precision", precision]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert err == ("degenerate configuration: a = c q^j, a c q^(2j) = 1 or c = a q^(j+1) "
                   "at even N makes the weights' normalization singular; "
                   "weights are undefined\n")


LARGE_N_ISOSPECTRAL = ["verify", "--kind", "qpr", "--a", "0.9", "--c", "0.7",
                       "--alpha", "0.75", "--N", "60", "--suite", "isospectral"]


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_large_n_isospectral_is_certified_or_fails_its_lines(capsys, precision):
    # At N = 60 the entries of J span twenty decades.  The pivots of the
    # twisted factorisation are ratios, so no run overflows: at q = 0.3 and
    # at q = 0.2 every lattice point is certified.
    options = ["--precision", precision, "--q"]
    for q in ("0.3", "0.2"):
        code, out, err = run_cli(capsys, LARGE_N_ISOSPECTRAL + options + [q])
        assert (code, err) == (0, ""), q
        assert [row.split(",")[1] for row in out.splitlines()[1:]] == ["pass", "pass"], q


def test_no_eigenvalue_iteration_is_left_to_fail():
    src = Path(__file__).resolve().parents[1] / "src" / "qortho"
    assert not [path.name for path in src.glob("*.py") if "did not converge" in path.read_text()]


@pytest.mark.parametrize("suite", ["explicit", "all"])
@pytest.mark.parametrize("precision", ["double", "extended"])
def test_verify_degenerate_exits_3(capsys, suite, precision):
    # c = a: the explicit expansion refuses the family as lattice-weights does.
    code, out, err = run_cli(capsys, [
        "verify", "--kind", "qpr", "--a", "0.7", "--c", "0.7", "--alpha", "0.5",
        "--q", "0.5", "--N", "5", "--suite", suite, "--precision", precision])
    assert code == 3
    assert out == ""
    assert err == ("degenerate configuration: c = a makes the spectrum doubly "
                   "degenerate; the explicit expansion is undefined\n")


def test_persymmetry_violation_beyond_binary64_does_not_pass(capsys):
    # a = 1e-240 puts b_0 near 1e240: the residual is a Decimal beyond the binary64
    # range, printed as inf, and a check with a residual it cannot print fails.
    code, out, err = run_cli(capsys, [
        "verify", "--kind", "qpr", "--a", "1e-240", "--c", "0.5", "--alpha", "0.75",
        "--q", "0.03125", "--N", "2", "--suite", "persymmetry", "--precision", "extended:30"])
    assert code == 4
    assert out.splitlines()[1:] == ["persymmetry/persymmetry-violation,fail,inf,1.000000e-06,"
                                    "expected residual above tolerance"]
    assert err == "verification failed: 1 of 1 checks\n"


@pytest.mark.parametrize("argv,message", [
    ("coeffs --kind qpr --a inf --c 0.7 --alpha 0.5 --q 0.5 --N 5",
     "parameters a and c must be finite"),
    ("coeffs --kind qpr --a inf --c 0.7 --alpha 0.5 --q 0.5 --N 5 --precision double",
     "parameters a and c must be finite"),
    ("coeffs --kind qpr --a 0.9 --c inf --alpha 0.5 --q 0.5 --N 5 --precision extended",
     "parameters a and c must be finite"),
    ("coeffs --kind qpk --Delta inf --alpha 0.5 --q 0.5 --N 5",
     "Delta must be finite"),
    ("coeffs --kind qpk --Delta inf --alpha 0.5 --q 0.5 --N 5 --precision extended",
     "Delta must be finite"),
    ("lattice-weights --kind qpr --a inf --c 0.7 --alpha 0.5 --q 0.5 --N 5",
     "parameters a and c must be finite"),
    ("verify --kind qpr --a inf --c 0.7 --alpha 0.5 --q 0.5 --N 5",
     "parameters a and c must be finite"),
    ("verify --kind qpk --Delta inf --alpha 0.5 --q 0.5 --N 5",
     "Delta must be finite"),
    # Refused before non-finite input was: the message is unchanged.
    ("coeffs --kind qpr --a nan --c 0.7 --alpha 0.5 --q 0.5 --N 5 --precision double",
     "parameters a and c must be positive reals"),
    ("coeffs --kind qpk --Delta=-inf --alpha 0.5 --q 0.5 --N 5 --precision double",
     "Delta must be a positive real"),
    ("coeffs --kind qpr --a 0.9 --c nan --alpha 0.5 --q 0.5 --N 5 --precision extended",
     "parameters a and c must be positive reals"),
    ("coeffs --kind qpk --Delta nan --alpha 0.5 --q 0.5 --N 5 --precision extended",
     "Delta must be a positive real"),
])
def test_infinite_lattice_parameters_are_invalid(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("QORTHO_PRECISION", raising=False)
    code, out, err = run_cli(capsys, argv.split())
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == "invalid parameters: " + message


@pytest.mark.parametrize("lattice", ["--kind qpr --a 1e400 --c 0.7", "--kind qpk --Delta 1e400"])
def test_finite_lattice_parameters_beyond_the_double_range_are_accepted(capsys, monkeypatch,
                                                                       lattice):
    monkeypatch.delenv("QORTHO_PRECISION", raising=False)
    code, out, err = run_cli(capsys, (
        "coeffs %s --alpha 0.5 --q 0.5 --N 3 --precision extended" % lattice).split())
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert rows[0] == "n,b,u" and len(rows) == 5
    assert rows[1].split(",")[1].endswith("e+399")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_coeffs_refuses_non_finite_output(capsys, fmt):
    # At a = 1e-160 every u_n but u_0 is about 1e318, beyond binary64.
    code, out, err = run_cli(capsys, [
        "coeffs", "--kind", "qpr", "--a", "1e-160", "--c", "0.7", "--alpha", "0.5",
        "--q", "0.5", "--N", "5", "--precision", "double", "--format", fmt])
    # The table is still printed, then refused.
    assert code == 4
    assert "inf" in out
    assert err == "non-finite output: 5 of 12 printed values are nan or inf\n"


def test_coeffs_at_a_large_a_prints_the_extended_values(capsys):
    # At a = 1e150 the u_n are about 1e298: each is A_{n-1} C_n / 4, a
    # product inside binary64, so double prints the extended values to 16
    # digits.
    argv = ("coeffs --kind qpr --a 1e150 --c 0.7 --alpha 0.5 --q 0.5 --N 5 "
            "--precision").split()
    code, out, err = run_cli(capsys, argv + ["double"])
    assert (code, err) == (0, "")
    code, ext, err = run_cli(capsys, argv + ["extended:30"])
    assert (code, err) == (0, "")
    rows, ext_rows = out.splitlines(), ext.splitlines()
    assert rows[0] == ext_rows[0] == "n,b,u" and len(rows) == len(ext_rows) == 7
    for row, ext_row in zip(rows[1:], ext_rows[1:]):
        for value, reference in zip(row.split(",")[1:], ext_row.split(",")[1:]):
            value, reference = float(value), float(reference)
            assert abs(value - reference) <= 1e-15 * abs(reference)


def test_runtime_imports_neither_numpy_nor_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import sys\n"
        "import qortho.cli\n"
        "code = qortho.cli.main(['verify', '--kind', 'qpr', '--a', '0.9', '--c', '0.7',"
        " '--alpha', '0.3', '--q', '0.5', '--N', '6', '--suite', 'all'])\n"
        "print(code, sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("QORTHO_PRECISION", None)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"


# sha256 of the table commands' and of verify's stdout, both kinds, CSV and
# JSON, binary64 and extended precision: any change to a printed digit shows
# here.
GOLDEN = [
    ("coeffs --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 5 --format csv",
     "6913d3beda94377ca206075cd910d7fabb808aa2bfde85091965e776fd13e4e5"),
    ("coeffs --kind qpr --a 0.8 --c 0.55 --alpha 0.75 --q 0.45 --N 6 --format json --precision extended",
     "f0429a144f994bbe91a38fe9d4416f9e03f8b54dd8ff51428ff838599094a51a"),
    ("coeffs --kind qpk --Delta 1.3 --alpha 0.35 --q 0.5 --N 5 --format csv --precision extended:30",
     "03101d3fe8395b18e8629e25d1d9da1d9d58496ac87c23a6916e47d800fc1157"),
    ("coeffs --kind qpk --Delta 1.2 --alpha 0.25 --q 0.6 --N 6 --format json",
     "18d05f54db55c0581c86de1b65e1ec6e54405a26df5a7e6b421c074dde62a789"),
    ("coeffs --kind qpr --a 0.8 --c 0.55 --alpha 0.75 --q 0.45 --N 6 --format csv --precision extended:40",
     "410d26e534e685a687130f93eca0f94729456bf17a11d089c280fbca3191028f"),
    ("coeffs --kind qpk --Delta 1.3 --alpha 0.35 --q 0.5 --N 5 --format json --precision double",
     "1e923937fcc248028a0c6ec3970e1be19a6e6352935bf4f35a78c7da5a062138"),
    ("lattice-weights --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 5 --format csv",
     "6b30c2c3d86de3ca98d0f139ba04628b5a7055c9ddf8c0a02d6ee778b326b0ef"),
    ("lattice-weights --kind qpr --a 0.8 --c 0.55 --alpha 0.75 --q 0.45 --N 6 --format json --precision extended",
     "c528cc8ce563c9c5b95fbe4d46777f5bd010761a3682bdf03ed73d4aa3d05671"),
    ("lattice-weights --kind qpk --Delta 1.3 --alpha 0.35 --q 0.5 --N 5 --format csv --precision extended:30",
     "25525f64a2cbea9ff7c2160924181dd06963202db3318e03603ee69f607b74e9"),
    ("lattice-weights --kind qpk --Delta 1.2 --alpha 0.25 --q 0.6 --N 6 --format json",
     "1b857ea1bc7d0cf66f3753612823114857a493a6d0edbf48f2c786beae766b40"),
    ("lattice-weights --kind qpr --a 0.8 --c 0.55 --alpha 0.75 --q 0.45 --N 6 --format csv --precision extended:40",
     "18b06ee45641becf7c7ba03f554863a84ce28773033fb047c87d7110cd3df10f"),
    ("lattice-weights --kind qpk --Delta 1.3 --alpha 0.35 --q 0.5 --N 5 --format json --precision double",
     "6f98faaa99978eb4bfec25ce625ad6ff2dbda2a38705bc9f2c293d645eceb49b"),
    ("coeffs --kind qpr --a 0.9 --c 0.7 --alpha 0.5 --q 0.5 --N 12 --format csv --precision extended",
     "ea48e93654f7078153c976a6933c5f42817f39c6650d42f24a5d175f2c08ef22"),
    ("lattice-weights --kind qpr --a 0.9 --c 0.7 --alpha 0.5 --q 0.5 --N 12 --format json --precision extended",
     "40b752187b9f26d48ac54883edbdcfd536b0eaa67197abe1e4dfc68e4c59eb71"),
    # The same two at the default precision: certified in double.
    ("coeffs --kind qpr --a 0.9 --c 0.7 --alpha 0.5 --q 0.5 --N 12 --format csv",
     "5acbc7b141b58538741031b26a18fef2b539fd1c22aee642325d387aa537b558"),
    ("lattice-weights --kind qpr --a 0.9 --c 0.7 --alpha 0.5 --q 0.5 --N 12 --format json",
     "c1fc07dd40d22f01ae3801d93c1175cdbbf356035d5224c406a61a34c8a4d71f"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 5 --format csv --precision double",
     "fe9b82d77668077c36c82aa66a9ef21f31fd6b66f5c31d6e682db5c68ce065f5"),
    ("verify --kind qpr --a 0.8 --c 0.55 --alpha 0.5 --q 0.45 --N 6 --format json --precision double --seed 3",
     "7af2b91e4456d15ed6c9eac9018404c0f79425b602fad028ff741a21bbf99b0d"),
    ("verify --kind qpk --Delta 1.3 --alpha 0.35 --q 0.5 --N 5 --format json --precision double",
     "df14261354ca68e03cca1515251fa4d7be07257824c7ea48ae5f722a6915cecb"),
    ("verify --kind qpk --Delta 1.2 --alpha 0.25 --q 0.6 --N 6 --format csv --precision extended",
     "b940ba5bcf563449e151e6803866df300d0e033cf754ce5bdc042e9687d881c2"),
    ("verify --kind qpr --a 0.8 --c 0.55 --alpha 0.75 --q 0.45 --N 6 --suite orthogonality --format json --precision extended",
     "7cb868966dcfc145edc5026ceadf022fd46171214756105a0ce3397c9c2b48fc"),
    # The explicit expansion of both parities, in double where the rerun
    # fires (q = 0.3) and at 60 digits.
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.3 --N 8 --suite explicit --format csv --precision double",
     "e8c604616249c8719b5beec31183af809157b0e3aa4e58fb31d1eefec21f98d5"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.3 --N 9 --suite explicit --format csv --precision double",
     "59c5671cafea65c095c34169c5b3995a95752a1b477f03fd2d6b7399ba5e770b"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 12 --suite explicit --format csv --precision extended:60",
     "63f272160a8c0c580dd6bd060d277731f1e67ed0055fe3b567a4e18acf4d9ab8"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 13 --suite explicit --format csv --precision extended:60",
     "eb1bb1872a0720afac2cb1803ec913bc44f12f321cccf4c38aa584585d510380"),
    # Every suite at the default extended precision, the setting of the
    # verify-ext benchmark: odd N, even N, and odd N with the middle-degree
    # branch at n = j and j+1; and the q-difference check at 60 digits.
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 9 --format json --precision extended",
     "21413e07003325d9b166d81ff222e6f1b9e2234a0ec8979866de2e05801ad3ff"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 12 --format json --precision extended",
     "7c4d01c7cf7b3ba005243cad3a6057ebd6c01aa84e5486087c1200d75ad0cb17"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 13 --format json --precision extended",
     "25e5a061e6762cca54ad49ccf6aa983c1e6f25bfd94fb8593743ee3392e34ce0"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 13 --suite bispectral --format json --precision extended:60",
     "feb14a75b41441ff330c6ab0235b508c2989eb7a716088846f7b2b75d925fdf2"),
    # The two limit oracles, which extrapolate at a fixed 50 digits whatever
    # the run's precision, and a qpk run that reads its own table in the
    # theta limit.
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 9 --suite dualhahn --format csv --precision extended:80",
     "8f09a8b75a17bc922b0c360ae042584464739c45c19beaf039bd597cd3b25433"),
    ("verify --kind qpr --a 0.8 --c 0.55 --alpha 0.75 --q 0.45 --N 8 --suite qpk-limit --format csv --precision extended:80",
     "a8c32427d8f61c556275df235528c65d819342f0f9de2a63a4b2eab17ab356ac"),
    ("verify --kind qpk --Delta 1.2 --alpha 0.25 --q 0.6 --N 7 --suite all --format csv --precision double",
     "6fa35da6007a9adb330bfede7a7d4d689e83fcac77e2d3dde1b6d78afc2185ae"),
    ("verify --kind qpk --Delta 1.3 --alpha 0.35 --q 0.5 --N 8 --suite all --format json --precision extended",
     "af0329cb84f0159f21d2872d215bd8a2fafd1818bbc98ffa342f59b365c5a6b5"),
    # The isospectral suite's deformed tables: N = 1, 2, 3, where the splice
    # n = j, j+1 reaches both ends of the table, families at alpha = 1/2 of
    # both parities, and one at a grid alpha, each in double and extended.
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 1 --suite isospectral --format json --precision double",
     "fda218d1d730c5a865fb514976fdf66ed0179da6910bc147a667e671ab5dfd74"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 1 --suite isospectral --format json --precision extended",
     "9a907680a2639710e580fe66dbb85030c9ddb588600a3535e2a92b5bcfeafaad"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 2 --suite isospectral --format json --precision double",
     "89082f99a3a2e3951091e56d8734d1f52d2db535007407503b0b36a9f406fea7"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 2 --suite isospectral --format json --precision extended",
     "f90f538ea26751ee26c2c05864e73e8b58907232c07fa80161ab24a7fa6c6048"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 3 --suite isospectral --format json --precision double",
     "fa9b18933eb010c8400a84ba5c2381f5c1b9c4e3b2c946de4a3689e3c9b6088d"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 3 --suite isospectral --format json --precision extended",
     "7db1c1d079ebc4de1f6f6fe593ac7a30fb1014373135f2cef15b6a93b8f21019"),
    ("verify --kind qpr --a 0.8 --c 0.55 --alpha 0.5 --q 0.45 --N 7 --suite isospectral --format json --precision double",
     "58b1be1d2a7697056a1f3331be8d4190cf07e802683f92a5e2fe9b03d46c2413"),
    ("verify --kind qpr --a 0.8 --c 0.55 --alpha 0.5 --q 0.45 --N 7 --suite isospectral --format json --precision extended",
     "18636c3d5db9e2ce234c112597c3e6fa61da1aabd3aa1acfa0cc06169ddc0c54"),
    ("verify --kind qpr --a 0.8 --c 0.55 --alpha 0.5 --q 0.45 --N 6 --suite isospectral --format json --precision double",
     "ff1bb1e409ae1efc913790f88ea9b66a80ace28cd57bc4866bc9df64035b5db9"),
    ("verify --kind qpr --a 0.8 --c 0.55 --alpha 0.5 --q 0.45 --N 6 --suite isospectral --format json --precision extended",
     "24f757da5718cc1c344986058ab5ff480fc4aed467b91f43dd5295d397c360f8"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.7 --q 0.5 --N 4 --suite isospectral --format json --precision double",
     "aab9edf1ed99495b73de24ab3827a9a575863dcabd8967a9166426cc141cfb5f"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.7 --q 0.5 --N 4 --suite isospectral --format json --precision extended",
     "c28c1e95f6aa870683be85f174882489cf5e877aa76580937ef038d8355b26bc"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_table_output_is_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("QORTHO_PRECISION", raising=False)
    code, out, _ = run_cli(capsys, argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
