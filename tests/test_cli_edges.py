"""Edge properties of the commands: whatever the parameters, `coeffs` and
`lattice-weights` exit with a documented code, and exit 0 only with finite
numbers on stdout; `verify` exits 0 only with every check passed at a finite
residual, and 4 only with a failed check in its report."""

import contextlib
import io
import json
import math
import os
import re
from decimal import Decimal
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from qortho.cli import main
from qortho.recurrence import _DEGENERATE_TOL
from qortho.verify import _QPK_SUITES, _QPR_SUITES

EDGE = ("0", "-0.7", "nan", "inf", "-inf", "1e150", "1e-150")

# Relative offsets of c from a that straddle the degenerate-strand tolerance.
NEAR = tuple(f * _DEGENERATE_TOL for f in (-10, -2, -1, -0.5, 0, 0.5, 1, 2, 10))

unit = st.floats(0, 1, exclude_min=True, exclude_max=True)


@st.composite
def table_commands(draw):
    kind = draw(st.sampled_from(("qpr", "qpk")))
    params = {"--alpha": draw(unit), "--q": draw(st.floats(0.01, 0.99))}
    if kind == "qpr":
        a = draw(unit)
        if draw(st.booleans()):
            c = a * (1 + draw(st.sampled_from(NEAR)))
        else:
            c = draw(unit)
        params.update({"--a": a, "--c": c})
    else:
        params["--Delta"] = draw(st.floats(0.05, 20.0))
    texts = {name: repr(value) for name, value in params.items()}
    edge = draw(st.sampled_from((None, *sorted(texts))))
    if edge is not None:
        texts[edge] = draw(st.sampled_from(EDGE))
    argv = [draw(st.sampled_from(("coeffs", "lattice-weights"))), "--kind", kind,
            "--N", str(draw(st.integers(1, 20))),
            "--format", draw(st.sampled_from(("csv", "json")))]
    if draw(st.booleans()):
        argv += ["--precision", "double"]
    # --name=value, so that argparse reads "-inf" as a value, not an option.
    return argv + ["%s=%s" % item for item in texts.items()]


def _printed_numbers(out: str, fmt: str) -> list:
    """Every number the command printed, as text (row indices excluded)."""
    if fmt == "json":
        doc = json.loads(out)
        values = [v for row in doc["rows"] for k, v in row.items() if k not in ("n", "s")]
        return [str(v) for v in values + list(doc.get("trailer", {}).values())]
    lines = out.splitlines()[1:]
    return [field for line in lines if not line.startswith("#")
            for field in line.split(",")[1:]] + [
        line.split("=")[1].strip() for line in lines if line.startswith("#")]


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        os.environ.pop("QORTHO_PRECISION", None)
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(table_commands())
def test_table_commands_exit_with_a_documented_code(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, err)
    if code == 0:
        numbers = _printed_numbers(out, argv[argv.index("--format") + 1])
        assert numbers
        assert all(Decimal(text).is_finite() for text in numbers), argv


# q next to 0 and to 1 (up to 1 - 1e-5), or anywhere in between.
nome = st.one_of(st.floats(0.001, 0.05), st.floats(0.95, 0.999), st.floats(0.999, 0.99999),
                 st.floats(0.01, 0.99))

# Every drawn family is inside the documented domain, so an exit 2 is a
# number the working precision cannot hold, or a vanishing denominator.
PRECISION_REFUSAL = re.compile(
    r"numeric (overflow|underflow or zero denominator) at \S+ precision: [^\n]*\n"
    r"|invalid parameters: denominator factor 1 - \([^\n]*\) \* q\^\d+ vanishes\n")


@st.composite
def verify_commands(draw):
    kind = draw(st.sampled_from(("qpr", "qpk")))
    N = draw(st.integers(1, 24))
    q = draw(nome)
    params = {"--alpha": draw(unit), "--q": q}
    if kind == "qpr":
        a = draw(unit)
        c = draw(st.one_of(
            unit,
            st.sampled_from(NEAR).map(lambda f: a * (1 + f)),
            # a c next to q^(1-N), where the positivity conditions change.
            st.floats(-1e-6, 1e-6).map(lambda f: q ** (1 - N) / a * (1 + f))
            .filter(math.isfinite)))
        params.update({"--a": a, "--c": c})
    else:
        params["--Delta"] = draw(st.one_of(st.floats(0.05, 20.0),
                                           st.sampled_from(NEAR).map(lambda f: 1 + f)))
    suites = _QPR_SUITES if kind == "qpr" else _QPK_SUITES
    return (["verify", "--kind", kind, "--N", str(N),
             "--suite", draw(st.sampled_from((*suites, "all"))),
             "--format", draw(st.sampled_from(("csv", "json"))),
             "--precision", draw(st.sampled_from(("double", "extended:30")))]
            + ["%s=%r" % item for item in params.items()])


def _report(out: str, fmt: str) -> list:
    """(status, residual text) of every check the report lists."""
    if fmt == "json":
        return [(chk["status"], str(chk["residual"])) for chk in json.loads(out)["checks"]]
    # The note, last, may hold a comma.
    return [tuple(line.split(",", 4)[1:3]) for line in out.splitlines()[1:]]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(verify_commands())
def test_verify_exit_code_agrees_with_its_report(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, err)
    if code in (2, 3):
        assert out == "", argv
        assert code == 3 or PRECISION_REFUSAL.fullmatch(err), (argv, err)
        return
    report = _report(out, argv[argv.index("--format") + 1])
    assert report, argv
    if code == 0:
        assert all(status == "pass" and Decimal(residual).is_finite()
                   for status, residual in report), argv
    else:
        assert any(status == "fail" for status, _ in report), argv
