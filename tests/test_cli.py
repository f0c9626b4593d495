import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qortho import verify
from qortho.cli import main

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
], ids=["--c", "--Delta"])
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


def test_auto_promotion_outside_box(capsys):
    code, out, err = run_cli(capsys, [
        "coeffs", "--kind", "qpr", "--a", "0.9", "--c", "0.7",
        "--alpha", "0.5", "--q", "0.5", "--N", "12", "--format", "csv"])
    assert code == 0
    assert "promoting to extended precision" in err


def test_explicit_precision_suppresses_promotion(capsys):
    code, out, err = run_cli(capsys, [
        "coeffs", "--kind", "qpr", "--a", "0.9", "--c", "0.7",
        "--alpha", "0.5", "--q", "0.5", "--N", "12",
        "--precision", "double", "--format", "csv"])
    assert code == 0
    assert "promoting" not in err


# At this parameter set the double-precision weights are all NaN.
NAN_WEIGHTS = ["--kind", "qpr", "--a", "0.9", "--c", "0.7", "--alpha", "0.5",
               "--q", "0.5", "--N", "70", "--precision", "double", "--format", "csv"]


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
    code, out, err = run_cli(capsys, [
        "lattice-weights", "--kind", "qpr", "--a", "0.9", "--c", "0.7", "--alpha", "0.5",
        "--q", "0.5", "--N", "30", "--precision", "double"])
    # Finite but far above TOL_GRAM: the table is printed and refused.
    assert code == 4
    assert "orthogonality not certified" in err
    assert out.strip().splitlines()[-1] == "# gram_max_error = 2.154e+36"


def _reject_constant(name):
    raise ValueError("not strict JSON: %s" % name)


@pytest.mark.parametrize("argv,field", [
    ("verify --a 0.9 --c 0.2 --alpha 0.5 --q 0.5 --N 4 --suite orthogonality --format json",
     lambda doc: [c["residual"] for c in doc["checks"]]),
    ("lattice-weights --a 0.9 --c 0.7 --alpha 0.5 --q 0.5 --N 70 --precision double "
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


@pytest.mark.parametrize("command", ["verify", "lattice-weights"])
def test_qpk_overflow_names_the_precision_and_the_remedy(capsys, command):
    argv = [command, "--kind", "qpk", "--Delta", "1.3", "--alpha", "0.5",
            "--q", "0.5", "--N", "60", "--precision", "double"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", _OVERFLOW_TEXT)


@pytest.mark.parametrize("command", ["coeffs", "lattice-weights", "verify"])
def test_underflow_is_not_invalid_parameters(capsys, command):
    # a = 1e-160 is valid; a binary64 denominator underflows to zero.
    argv = [command, "--kind", "qpr", "--a", "1e-160", "--c", "0.7", "--alpha", "0.5",
            "--q", "0.5", "--N", "5", "--precision", "double"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "invalid parameters" not in err
    assert err == ("numeric underflow or zero denominator at double precision: "
                   "float division by zero\n")


def test_zero_denominator_without_a_message_names_the_precision(capsys):
    # a = c q^j (a / c = q at N = 2, the edge of the positivity region) is an
    # exact zero of the factor a - c q^j in the denominator of the closed-form
    # weights' normalization; mpmath raises ZeroDivisionError with no text.
    argv = ["lattice-weights", "--kind", "qpr", "--a", "0.125", "--c", "0.25",
            "--alpha", "0.5", "--q", "0.5", "--N", "2", "--precision", "extended"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err == ("numeric underflow or zero denominator at extended:50 precision: "
                   "division by zero\n")


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
    # a = 1e-240 puts b_0 near 1e240: the residual is an mpf beyond the binary64
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
    code, out, err = run_cli(capsys, [
        "coeffs", "--kind", "qpr", "--a", "1e150", "--c", "0.7", "--alpha", "0.5",
        "--q", "0.5", "--N", "5", "--precision", "double", "--format", fmt])
    # The table is still printed, then refused.
    assert code == 4
    assert "inf" in out
    assert err == "non-finite output: 5 of 12 printed values are nan or inf\n"


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
     "0ba27eda587deb014f07895bbdbdeffa0f937ec7520d3d688d22fb7654aa64ea"),
    ("coeffs --kind qpr --a 0.8 --c 0.55 --alpha 0.75 --q 0.45 --N 6 --format json --precision extended",
     "25fefe9b9ac3eff4b1878d228b28ecc2f5cda7df9170f157a819a662039fe854"),
    ("coeffs --kind qpk --Delta 1.3 --alpha 0.35 --q 0.5 --N 5 --format csv --precision extended:30",
     "03101d3fe8395b18e8629e25d1d9da1d9d58496ac87c23a6916e47d800fc1157"),
    ("coeffs --kind qpk --Delta 1.2 --alpha 0.25 --q 0.6 --N 6 --format json",
     "69c06130119f91160d92cf79e3b271b9fcc0e4b71397d1fd3d8b9cc3169786a1"),
    ("coeffs --kind qpr --a 0.8 --c 0.55 --alpha 0.75 --q 0.45 --N 6 --format csv --precision extended:40",
     "410d26e534e685a687130f93eca0f94729456bf17a11d089c280fbca3191028f"),
    ("coeffs --kind qpk --Delta 1.3 --alpha 0.35 --q 0.5 --N 5 --format json --precision double",
     "1e923937fcc248028a0c6ec3970e1be19a6e6352935bf4f35a78c7da5a062138"),
    ("lattice-weights --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 5 --format csv",
     "53f2152940b174716750f6aedef74c20eca700b805dae7983513e4be8fb5eaad"),
    ("lattice-weights --kind qpr --a 0.8 --c 0.55 --alpha 0.75 --q 0.45 --N 6 --format json --precision extended",
     "716ec9e26d97414f4481e0c34004f68a03fc5800f600e924fd544e8db7d3674e"),
    ("lattice-weights --kind qpk --Delta 1.3 --alpha 0.35 --q 0.5 --N 5 --format csv --precision extended:30",
     "dfca46aecc6bbb8dccf9cb4a10ff04408a71f919a70545c496cd82b86369da23"),
    ("lattice-weights --kind qpk --Delta 1.2 --alpha 0.25 --q 0.6 --N 6 --format json",
     "e8cc3b0d84b3568c1d023279c7f7c025350b32e3e548a3e7553a05ba21912414"),
    ("lattice-weights --kind qpr --a 0.8 --c 0.55 --alpha 0.75 --q 0.45 --N 6 --format csv --precision extended:40",
     "8d570ab63855ce1df1b82324165406214d3557c804953466b7796a2b26f432cf"),
    ("lattice-weights --kind qpk --Delta 1.3 --alpha 0.35 --q 0.5 --N 5 --format json --precision double",
     "ea0a203fd90f03651d8dd9fb0516953d8fc54411116c9140eb6a00f651cb0b51"),
    ("coeffs --kind qpr --a 0.9 --c 0.7 --alpha 0.5 --q 0.5 --N 12 --format csv",
     "1bd54ff8d1139511527c197b15b5ac163eaf16e219f7da8ddabaea15905a9056"),
    ("lattice-weights --kind qpr --a 0.9 --c 0.7 --alpha 0.5 --q 0.5 --N 12 --format json",
     "8789755b4ef0d6117848b5788d023f3ea78785ac2e1859721666d1740985a316"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 5 --format csv --precision double",
     "771d51e39fd639fd98d119e9920fc28070d6f8a391d546365b7dae3702b44319"),
    ("verify --kind qpr --a 0.8 --c 0.55 --alpha 0.5 --q 0.45 --N 6 --format json --precision double --seed 3",
     "5bbdcd044869188b3a692c85fed5d79e6a4491e8536c6af43d47bc73a1e2bdd0"),
    ("verify --kind qpk --Delta 1.3 --alpha 0.35 --q 0.5 --N 5 --format json --precision double",
     "13125aac4a7c8d6fab3a5bf6a5afd67421b3fae4edc94ea22257ed5e2b1a5646"),
    ("verify --kind qpk --Delta 1.2 --alpha 0.25 --q 0.6 --N 6 --format csv --precision extended",
     "ad47161bf513e75cffee97aaa44bedfe16a2af5b18a10a7b0ecce9adc7e235c4"),
    ("verify --kind qpr --a 0.8 --c 0.55 --alpha 0.75 --q 0.45 --N 6 --suite orthogonality --format json --precision extended",
     "909e472e84106a08add3dc0ed17e7f8a00aa70326a7c804189fb531a51290d8a"),
    # The explicit expansion of both parities, in double where the 40-digit
    # rerun fires (q = 0.3) and at 60 digits.
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.3 --N 8 --suite explicit --format csv --precision double",
     "ab9912474df32e43210120e3c5455d8b23a56bb705629367ff25b8f53f024fdf"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.3 --N 9 --suite explicit --format csv --precision double",
     "05a0a08401e3d370681a7aa0f454a2ecc84c14aa54f3eee1472317d9e6653419"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 12 --suite explicit --format csv --precision extended:60",
     "df177fa13c628cabd2dee4efe007d05aeb557f28263caaabbf217e357de17cfc"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 13 --suite explicit --format csv --precision extended:60",
     "a1104d2f9634d98a8f917720c605893704f14e6f51a8b0f50848310223cf5a86"),
    # Every suite at the default extended precision, the setting of the
    # verify-ext benchmark: odd N, even N, and odd N with the middle-degree
    # branch at n = j and j+1; and the q-difference check at 60 digits.
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 9 --format json --precision extended",
     "d5f1a2fe6ecb6e41f0aaedafabc43b2bd13ce5609ec00c31f49672e6f66a4ea1"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 12 --format json --precision extended",
     "0d38e4d4a9eda616a1a54a693289bb635537e852d9d19b9a9d89528b97773858"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 13 --format json --precision extended",
     "f65513336363eed2f89ecde7adb574fadfba28f0186a7744793eba0d526dcc3b"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 13 --suite bispectral --format json --precision extended:60",
     "de40b70d6ee8f88ac2efadb6eb1ef2b384547c0bd6a0d6b03d1e373f8743dac8"),
    # The two limit oracles, which extrapolate at a fixed 50 digits whatever
    # the run's precision, and a qpk run that reads its own table in the
    # theta limit.
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 9 --suite dualhahn --format csv --precision extended:80",
     "55ae200d8239ef067b86b3ffb3d4308fca30e4ff16a870360dded366fd9bed47"),
    ("verify --kind qpr --a 0.8 --c 0.55 --alpha 0.75 --q 0.45 --N 8 --suite qpk-limit --format csv --precision extended:80",
     "a41a5d52c5051fba59e1a2d802321c168a34dec7d019ca4a746e846913b50768"),
    ("verify --kind qpk --Delta 1.2 --alpha 0.25 --q 0.6 --N 7 --suite all --format csv --precision double",
     "9e4c4694979563183b1bf9672063df16f1b1a1f19bfcf3e2f9b1ad792a15a899"),
    ("verify --kind qpk --Delta 1.3 --alpha 0.35 --q 0.5 --N 8 --suite all --format json --precision extended",
     "262703b113b92b2ea5e943fb27554de48864690930fadb9eaf26a6622ee49a27"),
    # The isospectral suite's deformed tables: N = 1, 2, 3, where the splice
    # n = j, j+1 reaches both ends of the table, families at alpha = 1/2 of
    # both parities, and one at a grid alpha, each in double and extended.
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 1 --suite isospectral --format json --precision double",
     "ad252ab62a3781b1d67dd9dbcafb316c16ae9b5d36b260f53e6269956888c112"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 1 --suite isospectral --format json --precision extended",
     "4b7b05642c510814b4801a5d230e59595321ca9568a6f5c9043ba574f46382f7"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 2 --suite isospectral --format json --precision double",
     "cf9c4aea8e070870cf73f6411321daa0369cf7b5ca8e07c46e83fe8156fffbd3"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 2 --suite isospectral --format json --precision extended",
     "d454d2b1c671d5f6795948390d572a72b78924c9ba7fbbf31b156982a31b10c7"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 3 --suite isospectral --format json --precision double",
     "48baf3f77b623c03d9eb91b4ce91104537e9c8597fb6c6f13f08e619dca7f936"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.3 --q 0.5 --N 3 --suite isospectral --format json --precision extended",
     "617155709acdc5766a6a398a120ae919c4cbc8da675d754e54ea79196df7eeb6"),
    ("verify --kind qpr --a 0.8 --c 0.55 --alpha 0.5 --q 0.45 --N 7 --suite isospectral --format json --precision double",
     "c5987d2c30cc5b4cc058d20d2412e48b34b572b9624f695e54dfae9e25914f5b"),
    ("verify --kind qpr --a 0.8 --c 0.55 --alpha 0.5 --q 0.45 --N 7 --suite isospectral --format json --precision extended",
     "88c45e74c2e417bf17477f8d9ad76d89eefe9d7a40c2d08a0c03fce44ffda143"),
    ("verify --kind qpr --a 0.8 --c 0.55 --alpha 0.5 --q 0.45 --N 6 --suite isospectral --format json --precision double",
     "e058683329fa2a01282ba7a22f0535c0b915eb0a4690a839e814f9a99fb17f92"),
    ("verify --kind qpr --a 0.8 --c 0.55 --alpha 0.5 --q 0.45 --N 6 --suite isospectral --format json --precision extended",
     "bdf744dadca9673782f96dc1183a45bec2d5783a6a57b6f1bae99a6eb9e37bc4"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.7 --q 0.5 --N 4 --suite isospectral --format json --precision double",
     "ad43926a9b403f4311bab689b95b97a9613ae62c000e25c9b9082c4fb66bf322"),
    ("verify --kind qpr --a 0.9 --c 0.7 --alpha 0.7 --q 0.5 --N 4 --suite isospectral --format json --precision extended",
     "eb9392c02b8c27a9e2297bdd6298866d4d3e4e2acf418ef6419f7c12fbe4c87f"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_table_output_is_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("QORTHO_PRECISION", raising=False)
    code, out, _ = run_cli(capsys, argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
