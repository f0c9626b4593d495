"""Per-operation correctness verdict, independent of the exit code.

An operation passes only when it exits 0 and its stdout parses and holds up:
every number finite, the expected row count, coefficients and weights of a
positive family positive, strand sums within TOL_WEIGHT_SUM of 1 - alpha and
alpha (as printed and as recomputed from the rows), the gram_max_error
trailer within TOL_GRAM, and every verify check passed with a residual on the
right side of its tolerance and every suite of the kind present.

Separately, an operation is *dishonest* when its output claims success that
the checks refute (exit 0 with a failed check), or when it refuses without a
documented exit code (2, 3 or 4) or exits 4 from ``verify`` with no failing
check in its report.  A dishonest operation makes the whole run incorrect; an
honest refusal only counts as a failed operation.

The tolerances are pinned here, at the values ``qortho.verify`` had when the
benchmark was defined, so that loosening them in the program cannot loosen
the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

TOL_GRAM = 1e-8
TOL_WEIGHT_SUM = 1e-9
DOCUMENTED_REFUSALS = (2, 3, 4)
SUITES = {
    "qpr": {"orthogonality", "bispectral", "persymmetry", "explicit", "isospectral",
            "qracah", "dualhahn", "qpk-limit"},
    "qpk": {"orthogonality", "persymmetry", "qpk-limit"},
}


class BadOutput(Exception):
    """The output does not hold up; the message says why."""


@dataclass
class Verdict:
    ok: bool
    honest: bool
    reason: str = ""


def _option(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _num(text) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise BadOutput("non-finite number %r" % (text,))
    return x


def _rows_csv(lines, header, width):
    if not lines or lines[0] != header:
        raise BadOutput("bad CSV header %r" % (lines[:1],))
    rows = [line.split(",", width - 1) for line in lines[1:] if not line.startswith("#")]
    if any(len(r) != width for r in rows):
        raise BadOutput("bad CSV row width")
    return rows


def _trailer_csv(lines):
    out = {}
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            out[key] = _num(value)
    return out


def _check_coeffs(argv, text):
    N = int(_option(argv, "--N"))
    if _option(argv, "--format", "csv") == "csv":
        rows = [(int(n), _num(b), _num(u))
                for n, b, u in _rows_csv(text.splitlines(), "n,b,u", 3)]
    else:
        doc = json.loads(text)
        rows = [(r["n"], _num(r["b"]), _num(r["u"])) for r in doc["rows"]]
    if [r[0] for r in rows] != list(range(N + 1)):
        raise BadOutput("rows are not n = 0..N")
    if rows[0][2] != 0 or any(u <= 0 for _, _, u in rows[1:]):
        raise BadOutput("u_0 != 0 or some u_n <= 0 in the positivity region")


def _check_lattice_weights(argv, text):
    N = int(_option(argv, "--N"))
    alpha = float(_option(argv, "--alpha"))
    key = "x" if _option(argv, "--kind") == "qpr" else "y"
    if _option(argv, "--format", "csv") == "csv":
        lines = text.splitlines()
        rows = [(int(s), _num(x), _num(w))
                for s, x, w in _rows_csv(lines, "s,%s,w" % key, 3)]
        trailer = _trailer_csv(lines)
    else:
        doc = json.loads(text)
        rows = [(r["s"], _num(r[key]), _num(r["w"])) for r in doc["rows"]]
        trailer = {k: _num(v) for k, v in doc["trailer"].items()}
    if [r[0] for r in rows] != list(range(N + 1)):
        raise BadOutput("rows are not s = 0..N")
    if any(w <= 0 for _, _, w in rows):
        raise BadOutput("non-positive weight in the positivity region")
    if set(trailer) != {"sum_even", "sum_odd", "gram_max_error"}:
        raise BadOutput("bad trailer keys %s" % sorted(trailer))
    if trailer["gram_max_error"] > TOL_GRAM:
        raise BadOutput("gram_max_error %.3e > %.0e" % (trailer["gram_max_error"], TOL_GRAM))
    sums = {"sum_even": (1 - alpha, sum(w for s, _, w in rows if s % 2 == 0)),
            "sum_odd": (alpha, sum(w for s, _, w in rows if s % 2 == 1))}
    for name, (want, recomputed) in sums.items():
        for got in (trailer[name], recomputed):
            if abs(got - want) > TOL_WEIGHT_SUM:
                raise BadOutput("%s = %r, want %r" % (name, got, want))


def _verify_rows(argv, text):
    """[(name, passed, residual, tolerance)] from a verify report."""
    if _option(argv, "--format", "csv") == "csv":
        rows = _rows_csv(text.splitlines(), "check,status,residual,tolerance,note", 5)
        out = [(name, status, float(res), float(tol)) for name, status, res, tol, _ in rows]
    else:
        doc = json.loads(text)
        out = [(c["name"], c["status"], float(c["residual"]), float(c["tolerance"]))
               for c in doc["checks"]]
    if any(status not in ("pass", "fail") for _, status, _, _ in out):
        raise BadOutput("unknown check status")
    return [(name, status == "pass", res, tol) for name, status, res, tol in out]


def _check_verify(argv, rows):
    suites = {name.split("/", 1)[0] for name, _, _, _ in rows}
    if suites != SUITES[_option(argv, "--kind")]:
        raise BadOutput("suites %s" % sorted(suites))
    for name, passed, res, tol in rows:
        if not passed:
            raise BadOutput("check %s failed (residual %.3e, tolerance %.0e)"
                            % (name, res, tol))
        if not math.isfinite(res):
            raise BadOutput("check %s passed with residual %r" % (name, res))
        if name.endswith("persymmetry-violation") != (res > tol):
            raise BadOutput("check %s passed with residual %.3e against %.0e"
                            % (name, res, tol))


def verdict(argv, rc: int, stdout: str) -> Verdict:
    cmd = argv[0]
    rows = None
    if cmd == "verify":
        try:
            rows = _verify_rows(argv, stdout)
        except (BadOutput, ValueError, KeyError, TypeError, IndexError):
            rows = None
    if rc != 0:
        reported = rows is not None and any(not passed for _, passed, _, _ in rows)
        honest = rc in DOCUMENTED_REFUSALS and (cmd != "verify" or rc != 4 or reported)
        return Verdict(False, honest, "exit %d" % rc)
    try:
        if cmd == "coeffs":
            _check_coeffs(argv, stdout)
        elif cmd == "lattice-weights":
            _check_lattice_weights(argv, stdout)
        elif rows is None:
            raise BadOutput("unparseable verify report")
        else:
            _check_verify(argv, rows)
    except (BadOutput, ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(False, False, "%s: %s" % (type(exc).__name__, exc))
    return Verdict(True, True)


def argv_key(argv) -> str:
    """Short stable identifier of an operation's command line."""
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()[:16]


def op_record(argv, seconds: float, scaled: float, rc: int, stdout: str,
              v: Verdict) -> dict:
    """What the harness keeps of one operation: ``s`` is the scaled time."""
    rec = {"key": argv_key(argv), "s": scaled, "raw_s": seconds, "rc": rc, "ok": v.ok,
           "honest": v.honest,
           "digest": hashlib.sha256(stdout.encode()).hexdigest()[:16]}
    if not v.ok:
        rec.update(argv=argv, why=v.reason)
    return rec
