"""What a process loads.  mpmath: no qortho process imports it, whatever its
command, kind and precision, limit checks included.  ``decimal``: a binary64
table command never imports it, every run that needs extended precision or a
limit check does, and ``is_extended`` stays right when a caller imports
``decimal`` after qortho.  The Askey-Wilson parent family is a test oracle:
the package has no such module, and a ``coeffs`` process does not load one;
no process loads ``dataclasses`` (or the ``inspect`` it pulls in), and only
a JSON-writing one loads ``json``.  No module imports mpmath, ``decimal``,
``dataclasses`` or ``typing`` at import time, and neither
``para_krawtchouk`` nor ``spectral`` imports ``para_racah``.  The
benchmark's tracer finds every function it wraps."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from qortho.para_racah import ParaRacahFamily
from qortho.recurrence import tridiagonal
from qortho.scalars import extended_precision

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qortho"

BOX = {"qpr": ["--kind", "qpr", "--a", "0.9", "--c", "0.7", "--alpha", "0.3", "--q", "0.5"],
       "qpk": ["--kind", "qpk", "--Delta", "1.3", "--alpha", "0.35", "--q", "0.5"]}

# Runs each argv through qortho.cli.main in this fresh process and prints, per
# argv, the exit code and whether mpmath and decimal are loaded afterwards.
_RUNNER = """
import contextlib, io, json, sys
import qortho, qortho.cli
def loaded():
    return ["mpmath" in sys.modules, "decimal" in sys.modules]
out = [[None, *loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = qortho.cli.main(argv)
    out.append([code, *loaded()])
print(json.dumps(out))
"""


def _fresh_process(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("QORTHO_PRECISION", None)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _run_fresh(*argvs):
    return _fresh_process(_RUNNER, json.dumps(argvs))


def test_binary64_table_commands_never_load_mpmath():
    argvs = [[command, *BOX[kind], "--N", str(N), "--format", fmt]
             for command in ("coeffs", "lattice-weights")
             for kind in ("qpr", "qpk")
             for fmt in ("csv", "json")
             for N in (5, 6, 12)]
    assert _run_fresh(*argvs) == [[None, False, False]] + [[0, False, False]] * len(argvs)


@pytest.mark.parametrize("kind", ["qpr", "qpk"])
def test_no_qortho_process_loads_mpmath(kind):
    # Every command at every precision, verify's limit checks included, and
    # a default run that reruns at extended precision (N 40 at q 0.2).
    argvs = [[command, *BOX[kind], "--N", "6", *precision]
             for command in ("coeffs", "lattice-weights", "verify")
             for precision in ([], ["--precision", "double"], ["--precision", "extended"],
                               ["--precision", "extended:30"])]
    argvs.append(["lattice-weights", *BOX[kind], "--q", "0.2", "--N", "40"])
    out = _run_fresh(*argvs)
    assert [code for code, *_ in out[1:]] == [0] * len(argvs)
    assert not any(mpmath for _, mpmath, _ in out)
    assert out[-1][2]  # the rerun made Decimal values


def _modules_loaded_by(*argv):
    """Every module a ``python -m qortho.cli`` process with ``argv`` imports,
    read from -X importtime on stderr."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("QORTHO_PRECISION", None)
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "qortho.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


@pytest.mark.parametrize("argv,loaded", [
    ("coeffs --precision double", False),
    ("lattice-weights --precision double", False),
    ("coeffs", False),
    ("lattice-weights", False),
    ("lattice-weights --precision extended", True),
])
@pytest.mark.parametrize("kind", ["qpr", "qpk"])
def test_binary64_table_processes_never_load_decimal(kind, argv, loaded):
    command, *rest = argv.split()
    modules = _modules_loaded_by(command, *BOX[kind], "--N", "6", *rest)
    assert ("decimal" in modules) is loaded
    assert "mpmath" not in modules


def test_coeffs_process_does_not_load_askey_wilson():
    loaded = _modules_loaded_by("coeffs", *BOX["qpr"], "--N", "5")
    assert "qortho.para_racah" in loaded
    assert "qortho.askey_wilson" not in loaded
    assert importlib.util.find_spec("qortho.askey_wilson") is None
    # The benchmark tracer (perfbench/tracer.py) looks these up in sys.modules.
    assert {"qortho.verify", "qortho.spectral", "qortho.connections"} <= loaded


# Installs the benchmark's tracer (perfbench/tracer.py, loaded from its file)
# around qortho.cli.main, runs each argv, uninstalls it and prints the exit
# codes, whether main is the original function again, and the tracer totals.
_TRACED = """
import contextlib, importlib.util, io, json, sys
import qortho.cli
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
main = qortho.cli.main
tracer = tracer_module.Tracer()
tracer.install()
codes = []
for op, argv in enumerate(json.loads(sys.argv[2])):
    tracer.begin_op(op)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(qortho.cli.main(argv))
    tracer.end_op(codes[-1])
tracer.uninstall()
print(json.dumps([codes, qortho.cli.main is main, tracer.totals()]))
"""


def test_benchmark_tracer_installs_around_the_cli():
    argvs = [[command, *BOX[kind], "--N", "5", "--precision", "double", *rest]
             for command, kind, rest in (("coeffs", "qpr", []),
                                         ("lattice-weights", "qpk", []),
                                         ("verify", "qpr", ["--suite", "all"]))]
    codes, restored, totals = _fresh_process(
        _TRACED, str(ROOT / "perfbench" / "tracer.py"), json.dumps(argvs))
    assert codes == [0, 0, 0] and restored
    assert totals["cli.calls"] == 3 and totals["cli.self_s"] > 0
    assert totals["verify.run_suite.calls"] == 1 and totals["verify.checks"] > 0


@pytest.mark.parametrize("argv", [
    "coeffs --format csv", "coeffs --format json",
    "lattice-weights --format csv", "lattice-weights --format json",
    "verify --suite all --precision double",
])
def test_no_process_loads_dataclasses_and_only_json_output_loads_json(argv):
    command, *rest = argv.split()
    loaded = _modules_loaded_by(command, *BOX["qpr"], "--N", "5", *rest)
    assert not {"dataclasses", "inspect"} & loaded
    assert ("json" in loaded) == ("json" in rest)
    assert {"qortho.verify", "qortho.spectral", "qortho.connections"} <= loaded


@pytest.mark.parametrize("argv,code", [
    ("verify --suite all --N 6 --precision double", 0),
    ("coeffs --N 6 --precision extended", 0),
    # In double coefficient-persymmetry reads 1.59e-12 > 1e-12: a rerun.
    ("verify --suite persymmetry --a 0.2137 --c 0.4430 --q 0.3232 --N 9 --alpha 0.5", 0),
    # q = 0.3 overrides the box family's q: the explicit rerun fires.
    ("verify --suite explicit --q 0.3 --N 8 --precision double", 0),
], ids=["verify-double", "coeffs-extended", "precision-rerun", "explicit-rerun"])
def test_extended_values_and_limit_checks_load_decimal(argv, code):
    assert _run_fresh(argv.split()[:1] + BOX["qpr"] + argv.split()[1:]) == [
        [None, False, False], [code, False, True]]


def _module_level_imports(tree):
    """Names imported by statements that run at import time (not inside a
    function body)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", ["para_krawtchouk", "spectral"])
def test_module_imports_nothing_from_para_racah(module):
    tree = ast.parse((SRC / (module + ".py")).read_text())
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert imported
    assert not [name for name in imported if name and "para_racah" in name]


# Loaded inside the functions that need them (decimal), or not at all.
_DENIED_AT_IMPORT_TIME = {"mpmath", "decimal", "dataclasses", "typing"}


def test_no_module_imports_a_denied_module_at_import_time():
    found = [(path.name, name)
             for path in sorted(SRC.glob("*.py"))
             for name in _module_level_imports(ast.parse(path.read_text()))
             if name.split(".")[0] in _DENIED_AT_IMPORT_TIME]
    assert not found


_IS_EXTENDED_LATE = """
import json, sys
from qortho import scalars
assert "decimal" not in sys.modules
from decimal import Decimal
from fractions import Fraction  # which imports decimal too
from types import SimpleNamespace
from qortho import qseries
from qortho.para_racah import ParaRacahFamily
from qortho.recurrence import tridiagonal
extended = [scalars.is_extended(v) for v in (Decimal(1), Decimal("0.5"))]
plain = [scalars.is_extended(v) for v in (1.0, 1, 1j, Fraction(1, 3))]
spec = SimpleNamespace(numerator=(Decimal("0.25"),), denominator=(Decimal("0.3"),),
                       q=Decimal("0.5"), argument=Decimal("0.5"), truncation=3)
terms = qseries.series_terms(spec.numerator, spec.denominator, qseries.PowerTable(spec.q),
                             spec.argument, spec.truncation)
sums = [str(qseries._series_eval_with_magnitude(spec)[0]),
        str(terms[0] + terms[1] + terms[2] + terms[3])]
with scalars.extended_precision(50):
    fam = ParaRacahFamily(a=Decimal("0.9"), c=Decimal("0.7"), alpha=Decimal("0.3"),
                          q=Decimal("0.5"), N=7)
    tri = tridiagonal(fam)
    entries = [[type(v) is Decimal, str(v)] for v in tri.b + tri.u]
print(json.dumps([extended, plain, sums, entries]))
"""


def test_is_extended_when_decimal_is_imported_after_qortho():
    extended, plain, sums, entries = _fresh_process(_IS_EXTENDED_LATE)
    assert extended == [True, True]
    assert plain == [False, False, False, False]
    # The oracle entry adds Decimal terms plainly, left to right; a
    # compensated sum of these terms reads ...656 in the last digit.
    assert sums == ["1.951180303202362025891437657"] * 2
    with extended_precision(50):
        fam = ParaRacahFamily(a=Decimal("0.9"), c=Decimal("0.7"), alpha=Decimal("0.3"),
                              q=Decimal("0.5"), N=7)
        tri = tridiagonal(fam)
        expected = [[True, str(v)] for v in tri.b + tri.u]
    assert entries == expected
