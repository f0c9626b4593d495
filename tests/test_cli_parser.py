"""The argument parser's contract: help, usage errors and every subcommand's
options stay as they are, and ``main`` keeps no state between calls."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qortho import cli, verify

ROOT = Path(__file__).resolve().parents[1]

BOX = ["--kind", "qpr", "--a", "0.9", "--c", "0.7", "--alpha", "0.3", "--q", "0.5"]


def _outcome(argv):
    """[exit code, stdout, stderr] of ``main(argv)``; a usage error or a help
    request exits through ``SystemExit``, whose code stands for the return."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def _digest(outcome):
    return hashlib.sha256(json.dumps(outcome).encode()).hexdigest()


# sha256 of [exit code, stdout, stderr] at terminal widths 80 and 50, for the
# help of each parser and for each kind of usage error argparse reports.
# argparse words and lays out its messages differently from one Python
# release to the next; these were recorded with Python 3.11.
CONTRACT = [
    ("-h", 0,
     "33d4a141bb499671fca3d4b602be402ca2cb49b07827686bcd03c5f082e7c637",
     "8fe8af99226b862fcdf72adbc57ea1c22181563ac96d75135bc330891a0eeb57"),
    ("coeffs -h", 0,
     "dd5039d80096fdc9c03e40bcb060376b5abc89f6569166b4eb58bf76cf9c96a5",
     "22e7c9868941db25d48f3c6ae382f69fb041db69c6b724ffc2b7db0b8e1267fe"),
    ("lattice-weights -h", 0,
     "6dea31e386974d4e28c32b435646644b199501bcf4ced3a7aa76d0b12ce8fe89",
     "d7855f1ee6e8f5c434a2a9e0288f5735b117fad5283598d48c57a534bbc12421"),
    ("verify -h", 0,
     "893e1379ce1eda9a92f06ac2d96560d5c8cfd9e225d6635a11e47f741d327c12",
     "b50e0d46add386c547f7ee3a25550cab7cc93e5253a743dbb4bc6f1ddc1b490b"),
    ("", 2,
     "06b84fc1459a576b689aeab77d35b425d4ded0f5ccfd59af459690d4813bc252",
     "2096092f0059fae1e85335b06d9662fbcd41c170e236159a0892c928ce1674a5"),
    ("bogus", 2,
     "f9ac39e3e3f20ba22694c7b1e20f100e3fd5b75573baffaffa31066fe27c6251",
     "2244a8f7924cb267df358066dd41cfd9750956f34a49d4c639955884400a4e52"),
    ("coeffs", 2,
     "65f889747cea5af343367ab136987ac65bc4aaf589bf423dbebcea0b0388ac62",
     "f03ae87f44ab537125a63abe5625adbc7c242f715d16a1b44ec026aa33ae1380"),
    ("coeffs %s --N five", 2,
     "e0b67f6dc92562a6a6b83b40ab78afaa9ef2a27af3b6e2ac51fc5afca4f4f35b",
     "5452986dbca809327495441fab2697d11a16d49adb0165bd264e2436755b0d58"),
    ("verify %s --N 5 --seed 1.5", 2,
     "dbb20ff846aa5bb809719ac19383742346f6ade3e2c45736f59ed4ec38cab9e6",
     "ef67155b60053574ffdd4cc6b09838141b70fb4e9c9c3d213509641e9d53ff29"),
    ("verify %s --N 5 --suite nope", 2,
     "dd2b9dc09199ee714e57cd485b7405d1f3eae2ab0ed20d588ebf3847157db321",
     "c3a216be27e7183907d59d7e8d58bed1a88747b06abd4f511c11c40655e599ec"),
    ("coeffs %s --N 5 --suite all", 2,
     "9b38a1a61c2ea05f96e618d15a5be1983e8d9195eacb046394c674f58ae825d4",
     "254ec67f1f46c1b10d58acd6e5629475626f01776983f20a3e4784d0bbed9c21"),
    ("coeffs --kind zz --alpha 0.3 --q 0.5 --N 5", 2,
     "a7f4e46d15417bc0a987ae7f65fc828b9eee201aec9510ce40f766c1f8fb74d0",
     "9a55b65b2d27dfe399d61219622a2723acd8a2ac887915d7f150f777f0440652"),
    ("lattice-weights %s --N 5 --format xml", 2,
     "0a0af79a79bd5068b3817cc85a9365d12181573574b313d90ff7885b6778f31e",
     "94ec240c056487a3967f8b3bb20a16264898e17a4d8e6597c32db59e64a6ee2d"),
    ("coeffs %s --N 5 --frob", 2,
     "1a7e3b378c0fd52e97b7c6e997d1602f1f06bbcc8585b333f6e651d150f005c2",
     "427878d4b520f20390f0f01a0c994c5817b73044987972dbc84d68fe36b87c39"),
]

recorded_python = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="argparse's messages were recorded with Python 3.11")


def _argv(template):
    return template.replace("%s", " ".join(BOX)).split()


@recorded_python
@pytest.mark.parametrize("columns,column", [(80, 2), (50, 3)])
@pytest.mark.parametrize("row", CONTRACT, ids=[row[0] or "no-argv" for row in CONTRACT])
def test_help_and_usage_errors_are_pinned(monkeypatch, row, columns, column):
    monkeypatch.setenv("COLUMNS", str(columns))
    outcome = _outcome(_argv(row[0]))
    assert outcome[0] == row[1]
    assert _digest(outcome) == row[column]


HELP = (("-h", "--help"), "help", argparse.SUPPRESS, False, None, None,
        "show this help message and exit")
FAMILY = [
    (("--kind",), "kind", "qpr", False, ("qpr", "qpk"), None,
     "family kind: biexponential (qpr) or exponential (qpk)"),
    (("--a",), "a", None, False, None, None, "a parameter (qpr)"),
    (("--c",), "c", None, False, None, None, "c parameter (qpr)"),
    (("--Delta",), "Delta", None, False, None, None, "lattice ratio Delta (qpk)"),
    (("--alpha",), "alpha", None, True, None, None, "deformation parameter in (0,1)"),
    (("--q",), "q", None, True, None, None, "nome, 0 < q < 1"),
    (("--N",), "N", None, True, None, int, "top degree, N >= 1"),
    (("--format",), "format", "csv", False, ("csv", "json"), None, None),
    (("--precision",), "precision", None, False, None, None,
     "double | extended | extended:P (env QORTHO_PRECISION wins)"),
    (("--seed",), "seed", 0, False, None, int,
     "seed for random evaluation points (default 0)"),
]
SUITE = (("--suite",), "suite", "all", False, verify.SUITES, None, None)
ACTIONS = {"coeffs": [HELP, *FAMILY],
           "lattice-weights": [HELP, *FAMILY],
           "verify": [HELP, *FAMILY, SUITE]}


def _subparsers(parser):
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _actions(subparser):
    return [(tuple(a.option_strings), a.dest, a.default, a.required, a.choices, a.type,
             a.help) for a in subparser._actions]


def test_each_subcommand_keeps_its_options_in_order():
    subparsers = _subparsers(cli.build_parser())
    assert list(subparsers) == list(ACTIONS)
    for name, expected in ACTIONS.items():
        assert _actions(subparsers[name]) == expected, name


def test_a_command_line_builds_the_options_of_the_command_it_names():
    subparsers = _subparsers(cli.build_parser(["coeffs", *BOX, "--N", "5"]))
    assert list(subparsers) == list(ACTIONS)
    assert _actions(subparsers["coeffs"]) == ACTIONS["coeffs"]
    assert _actions(subparsers["lattice-weights"]) == [HELP]
    assert _actions(subparsers["verify"]) == [HELP]


# Command lines that name their subcommand in each place argparse reads it,
# or name none: help, usage errors and real runs.
FORMS = [
    "", "-h", "--help", "--he", "bogus", "coeffs", "coeffs -h", "lattice-weights -h",
    "verify -h", "-h coeffs", "coeffs %s --N 5 -h", "-- coeffs %s --N 5",
    "--kind=qpr coeffs %s --N 5", "--kind qpr coeffs %s --N 5", "-5 coeffs %s --N 5",
    "- coeffs", "coeffs %s --N 5 --suite all", "verify %s --N 5 --suite nope",
    "verify %s --N 5 --su persymmetry", "coeffs %s --N 5 extra",
    "coeffs %s --N 5", "lattice-weights %s --N 5", "verify %s --N 5",
    "lattice-weights --kind qpk --Delta 1.3 --alpha 0.3 --q 0.5 --N 5 --format json",
]


@pytest.mark.parametrize("form", FORMS, ids=[form.replace("%s", "BOX") or "no-argv"
                                            for form in FORMS])
def test_each_command_line_reads_as_with_every_subcommand_built(monkeypatch, form):
    # Run on every Python, where the CONTRACT digests run only on 3.11.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("QORTHO_PRECISION", raising=False)
    argv = _argv(form)
    built = _outcome(argv)
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: build_parser())
    assert built == _outcome(argv)


# Every option at its default, as each subcommand parses it.
DEFAULTS = {"kind": "qpr", "a": None, "c": None, "Delta": None, "alpha": "0.3",
            "q": "0.5", "N": 2, "format": "csv", "precision": None, "seed": 0}


def _parsed_defaults():
    parser = cli.build_parser()
    return {command: vars(parser.parse_args([command, "--alpha", "0.3", "--q", "0.5",
                                             "--N", "2"]))
            for command in ACTIONS}


def _mixed_sequence():
    """coeffs, lattice-weights and verify --suite all for both kinds, CSV and
    JSON, double and extended, N from 2 to 6."""
    kinds = {"qpr": ["--kind", "qpr", "--a", "0.8", "--c", "0.55", "--alpha", "0.75",
                     "--q", "0.45"],
             "qpk": ["--kind", "qpk", "--Delta", "1.2", "--alpha", "0.25", "--q", "0.6"]}
    argvs = []
    for precision, fmt, kind, command in itertools.product(
            ("double", "extended"), ("csv", "json"), kinds,
            ("coeffs", "lattice-weights", "verify")):
        argvs.append([command, *kinds[kind], "--N", str(2 + len(argvs) % 5), "--format", fmt,
                      "--precision", precision]
                     + (["--suite", "all"] if command == "verify" else []))
    return argvs


# Runs each argv through qortho.cli.main in a fresh process and prints
# [exit code, stdout, stderr] as one JSON line.
_ONE_CALL = """
import contextlib, io, json, sys
import qortho.cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = qortho.cli.main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def test_calls_in_one_process_match_fresh_processes(monkeypatch):
    monkeypatch.delenv("QORTHO_PRECISION", raising=False)
    before = _parsed_defaults()
    argvs = _mixed_sequence()
    in_process = [_outcome(argv) for argv in argvs]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fresh = [json.loads(subprocess.run(
        [sys.executable, "-c", _ONE_CALL, *argv], env=env, capture_output=True,
        text=True, timeout=120, check=True).stdout) for argv in argvs]
    for argv, got, expected in zip(argvs, in_process, fresh):
        assert got == expected, " ".join(argv)
    assert [code for code, _, _ in in_process] == [0] * len(argvs)
    after = _parsed_defaults()
    assert after == before
    assert after == {
        "coeffs": {"command": "coeffs", "func": cli.cmd_coeffs, **DEFAULTS},
        "lattice-weights": {"command": "lattice-weights", "func": cli.cmd_lattice_weights,
                            **DEFAULTS},
        "verify": {"command": "verify", "func": cli.cmd_verify, "suite": "all", **DEFAULTS}}
