import hashlib
import json

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


def test_missing_kind_parameter_exits_2(capsys):
    code, _, err = run_cli(capsys, [
        "coeffs", "--kind", "qpr", "--a", "0.9",
        "--alpha", "0.5", "--q", "0.5", "--N", "5"])
    assert code == 2
    assert "--c" in err


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


def test_qpk_rejects_qpr_only_suite(capsys):
    code, _, err = run_cli(capsys, [
        "verify", "--kind", "qpk", "--Delta", "1.3",
        "--alpha", "0.5", "--q", "0.5", "--N", "4", "--suite", "bispectral"])
    assert code == 2
    assert "not defined" in err


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
    code, out, _ = run_cli(capsys, ["lattice-weights"] + NAN_WEIGHTS)
    # NaN output still exits 0: a refusal path for it is not defined yet.
    assert code == 0
    trailer = out.strip().splitlines()[-1]
    assert trailer == "# gram_max_error = nan"


# sha256 of the table commands' stdout, both kinds, CSV and JSON, binary64
# and extended precision: any change to a printed digit shows here.
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
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_table_output_is_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("QORTHO_PRECISION", raising=False)
    code, out, _ = run_cli(capsys, argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
