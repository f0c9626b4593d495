"""Command-line front end: coefficient tables, lattice/weight tables, and
verification suites, with CSV or JSON output.

Exit codes: 0 success, 2 invalid parameters, usage, numeric overflow or a
division by zero (a denominator that underflows or vanishes at the working
precision), 3 degenerate configuration (coincident strands, strands that
share a lattice point, a / c or Delta = q^k with k != 0 within their lengths,
qpr strand points z and z' with z z' = 1, which x = (z + 1/z)/2 makes one,
or a qpr family at even N with a = c q^j, a c q^(2j) = 1 or c = a q^(j+1),
where the weights are undefined), 4 verification failure, non-finite output
or a lattice-weights ``gram_max_error`` above tolerance: the largest of the
two Gram errors and the lattice's twist, read from one evaluation of the
table at its lattice.
Data goes to stdout, diagnostics to stderr.  A fixed configuration (including
--seed and the precision mode) produces byte-identical output.

The environment variable QORTHO_PRECISION ("double", "extended" or
"extended:P") overrides the --precision flag.  When neither is given, a
command runs in double with its output held back.  It reruns at extended
precision, after one stderr note that names the refusal, exactly when a
higher precision may lift that refusal: a failed verify line that says so
(``verify.Check.precision_bound``), a non-finite or uncertified table (all
exit 4), or an overflow or a vanishing denominator (exit 2).  Otherwise the
double run's output is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys

from . import para_krawtchouk, para_racah, verify
from .recurrence import (DegenerateFamilyError, family_module, gram_errors, lattice_vectors,
                         tridiagonal)
from .scalars import (DEFAULT_EXTENDED_DIGITS, as_scalar, extended_precision,
                      format_scalar, is_finite, max_keep_nan)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_VERIFY = 4

SCHEMA_VERSION = 1


class _Precision:
    def __init__(self, extended: bool, digits: int):
        self.extended = extended
        self.digits = digits

    @property
    def label(self) -> str:
        return "extended:%d" % self.digits if self.extended else "double"

    def context(self):
        return extended_precision(self.digits) if self.extended else contextlib.nullcontext()

    def fmt(self, x) -> str:
        return format_scalar(x, self.digits if self.extended else 17)


def _parse_precision(text: str) -> _Precision:
    if text == "double":
        return _Precision(False, 0)
    if text == "extended":
        return _Precision(True, DEFAULT_EXTENDED_DIGITS)
    if text.startswith("extended:"):
        digits = int(text.split(":", 1)[1])
        if digits < 15:
            raise ValueError("extended precision needs at least 15 digits")
        return _Precision(True, digits)
    raise ValueError("precision must be 'double', 'extended' or 'extended:P'")


# Per family kind: its class, its lattice parameters (the options that only
# this kind takes) and the name of the lattice variable in lattice-weights
# output.
_KINDS = {
    "qpr": (para_racah.ParaRacahFamily, ("a", "c"), "x"),
    "qpk": (para_krawtchouk.ParaKrawtchoukFamily, ("Delta",), "y"),
}


def _require_lattice_options(args):
    lattice_params = _KINDS[args.kind][1]
    if any(getattr(args, name) is None for name in lattice_params):
        raise ValueError("kind %r requires %s" % (
            args.kind, " and ".join("--" + name for name in lattice_params)))
    # The other kind's options would be ignored: the output echoes only these.
    foreign = [name for _, params, _ in _KINDS.values() for name in params
               if name not in lattice_params and getattr(args, name) is not None]
    if foreign:
        raise ValueError("kind %r does not take --%s" % (args.kind, foreign[0]))


def _build_family(args, prec: _Precision):
    cls, lattice_params, _ = _KINDS[args.kind]
    ext = prec.extended
    return cls(**{name: as_scalar(getattr(args, name), ext) for name in lattice_params},
               alpha=as_scalar(args.alpha, ext), q=as_scalar(args.q, ext), N=args.N)


def _emit_json(args, prec: _Precision, **body):
    """Print the command's JSON document: the envelope every command shares
    (schema version, command, precision, family parameters) and ``body``."""
    import json  # only a JSON-writing process pays for it
    params = {"kind": args.kind, "alpha": args.alpha, "q": args.q, "N": args.N,
              "seed": args.seed}
    params.update((name, getattr(args, name)) for name in _KINDS[args.kind][1])
    print(json.dumps({"schema_version": SCHEMA_VERSION, "command": args.command,
                      "precision": prec.label, "params": params, **body},
                     sort_keys=True, allow_nan=False))


def _json_float(x):
    # JSON has no nan or +-inf: those are the strings the CSV prints for them.
    x = float(x)
    return x if math.isfinite(x) else "%g" % x


def _json_number(x, prec: _Precision):
    # Extended-precision values do not fit a JSON double; ship them as strings.
    return prec.fmt(x) if prec.extended else _json_float(x)


def _refuse(reason: str, precision_bound: bool = True):
    """EXIT_VERIFY with ``reason`` on stderr.  Each command returns its exit
    code and the name of a refusal that a higher precision might lift, or None."""
    print(reason, file=sys.stderr)
    return EXIT_VERIFY, reason if precision_bound else None


def _non_finite(printed) -> str:
    """The refusal of output with a nan or inf among ``printed``, or ''."""
    bad = sum(not is_finite(v) for v in printed)
    return ("non-finite output: %d of %d printed values are nan or inf"
            % (bad, len(printed)) if bad else "")


def cmd_coeffs(args, prec: _Precision):
    with prec.context():
        tri = tridiagonal(_build_family(args, prec))
        rows = [(n, b, u) for n, (b, u) in enumerate(zip(tri.b, (0.0,) + tri.u))]
        if args.format == "csv":
            print("n,b,u")
            for n, b, u in rows:
                print("%d,%s,%s" % (n, prec.fmt(b), prec.fmt(u)))
        else:
            _emit_json(args, prec, rows=[{"n": n, "b": _json_number(b, prec),
                                          "u": _json_number(u, prec)} for n, b, u in rows])
        bad = _non_finite([v for _, b, u in rows for v in (b, u)])
    return _refuse(bad) if bad else (EXIT_OK, None)


def cmd_lattice_weights(args, prec: _Precision):
    with prec.context():
        fam = _build_family(args, prec)
        tri = tridiagonal(fam)
        lw = family_module(fam).weights(fam)
        pts = lw.points
        vectors, twist = lattice_vectors(tri.b, tri.u, pts)
        # The twist shows a point that is not a zero of R_{N+1}; the glued
        # vectors would hide it from the Gram errors.
        gram_max = max_keep_nan(*gram_errors(vectors, lw.weights, tri.h), float(twist))
        point_key = _KINDS[args.kind][2]
        sum_even, sum_odd = lw.strand_sums()
        if args.format == "csv":
            print("s,%s,w" % point_key)
            for s in range(fam.N + 1):
                print("%d,%s,%s" % (s, prec.fmt(pts[s]), prec.fmt(lw.weights[s])))
            print("# sum_even = %s" % prec.fmt(sum_even))
            print("# sum_odd = %s" % prec.fmt(sum_odd))
            print("# gram_max_error = %.3e" % gram_max)
        else:
            _emit_json(args, prec,
                       rows=[{"s": s, point_key: _json_number(pts[s], prec),
                              "w": _json_number(lw.weights[s], prec)}
                             for s in range(fam.N + 1)],
                       trailer={
                           "sum_even": _json_number(sum_even, prec),
                           "sum_odd": _json_number(sum_odd, prec),
                           "gram_max_error": _json_float(gram_max),
                       })
        bad = _non_finite((*pts, *lw.weights, sum_even, sum_odd, gram_max))
    if bad:
        return _refuse(bad)
    if gram_max > verify.TOL_GRAM:
        return _refuse("orthogonality not certified: gram_max_error = %.3e exceeds %.0e"
                       % (gram_max, verify.TOL_GRAM))
    return EXIT_OK, None


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, its quotes doubled, when it holds a
    comma, a quote or a line break, as the csv module's minimal quoting does."""
    if any(ch in text for ch in ',"\r\n'):
        return '"%s"' % text.replace('"', '""')
    return text


def cmd_verify(args, prec: _Precision):
    with prec.context():
        checks = verify.run_suite(args.suite, _build_family(args, prec), seed=args.seed)
    if args.format == "csv":
        print("check,status,residual,tolerance,note")
        for chk in checks:
            print("%s,%s,%.6e,%.6e,%s" % (
                chk.name, "pass" if chk.passed else "fail",
                chk.residual, chk.tolerance, _csv_field(chk.note)))
    else:
        _emit_json(args, prec, suite=args.suite, checks=[{
            "name": chk.name,
            "status": "pass" if chk.passed else "fail",
            "residual": _json_float(chk.residual),
            "tolerance": _json_float(chk.tolerance),
            "note": chk.note,
        } for chk in checks])
    failed = [chk for chk in checks if not chk.passed]
    if not failed:
        return EXIT_OK, None
    return _refuse("verification failed: %d of %d checks" % (len(failed), len(checks)),
                   any(chk.precision_bound for chk in failed))


def _add_family_options(p: argparse.ArgumentParser) -> None:
    """The ten options of every subcommand, added to ``p``."""
    p.add_argument("--kind", choices=tuple(_KINDS), default="qpr",
                   help="family kind: biexponential (qpr) or exponential (qpk)")
    p.add_argument("--a", help="a parameter (qpr)")
    p.add_argument("--c", help="c parameter (qpr)")
    p.add_argument("--Delta", help="lattice ratio Delta (qpk)")
    p.add_argument("--alpha", required=True, help="deformation parameter in (0,1)")
    p.add_argument("--q", required=True, help="nome, 0 < q < 1")
    p.add_argument("--N", type=int, required=True, help="top degree, N >= 1")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--precision", default=None,
                   help="double | extended | extended:P (env QORTHO_PRECISION wins)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for random evaluation points (default 0)")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of the command line ``argv``.  All three subcommands exist,
    so the top-level help and usage errors list them; only the one that argv
    names gets its options.  With no argv every subcommand gets them."""
    parser = argparse.ArgumentParser(prog="qortho", description=(
        "Bi-lattice orthogonal polynomial tables and verification."))
    # Given prog, argparse need not format a usage line to learn the prefix.
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    # The top parser's one option, -h, takes no value, so the command is the
    # first word without a leading dash, or argparse refuses that word as one.
    named = None if argv is None else next(
        (word for word in argv if not word.startswith("-")), None)
    for name, func, text in (
            ("coeffs", cmd_coeffs, "emit the recurrence table (n, b_n, u_n)"),
            ("lattice-weights", cmd_lattice_weights,
             "emit lattice points and orthogonality weights"),
            ("verify", cmd_verify, "run a verification suite")):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        if argv is None or name == named:
            _add_family_options(p)
            if name == "verify":
                p.add_argument("--suite", choices=verify.SUITES, default="all")
    return parser


def _run(args, precision: str):
    """One command at ``precision``: its exit code and its precision-bound
    refusal's name, or None."""
    try:
        _require_lattice_options(args)
        prec = _parse_precision(precision)
        return args.func(args, prec)
    except DegenerateFamilyError as exc:
        print("degenerate configuration: %s" % exc, file=sys.stderr)
        return EXIT_DEGENERATE, None
    except ValueError as exc:
        print("invalid parameters: %s" % exc, file=sys.stderr)
        return EXIT_USAGE, None
    except ArithmeticError as exc:
        signal = _decimal_signal(exc)
        if isinstance(exc, OverflowError) or signal == "Overflow":
            reason = "numeric overflow at %s precision" % prec.label
            # A binary64 overflow's own text is an errno tuple.
            detail = ("a value exceeds 10^999999" if signal else exc if prec.extended
                      else "a value exceeds the binary64 range; "
                      "rerun with --precision extended or extended:P")
            print("%s: %s" % (reason, detail), file=sys.stderr)
            return EXIT_USAGE, reason
        if isinstance(exc, ZeroDivisionError) or signal in ("DivisionUndefined", "Underflow"):
            # A valid a = 1e-160 underflows a binary64 denominator to zero.
            reason = "numeric underflow or zero denominator at %s precision" % prec.label
            detail = ("a value falls below 10^-999999" if signal == "Underflow"
                      else "division by zero" if signal else str(exc) or "division by zero")
            print("%s: %s" % (reason, detail), file=sys.stderr)
            return EXIT_USAGE, reason
        print("invalid parameters: %s" % ("invalid operation" if signal else exc),
              file=sys.stderr)
        return EXIT_USAGE, None


def _decimal_signal(exc):
    """The name of the Decimal condition behind ``exc`` (``Overflow``,
    ``Underflow``, ``DivisionByZero``, ``DivisionUndefined`` for 0 / 0, ...),
    or None for an exception that is no Decimal signal.  The C module raises
    a signal with the list of its conditions as its argument."""
    decimal = sys.modules.get("decimal")
    if decimal is None or not isinstance(exc, decimal.DecimalException):
        return None
    conditions = exc.args[0] if exc.args and isinstance(exc.args[0], list) else [type(exc)]
    return conditions[0].__name__


def main(argv=None) -> int:
    """Run one command (``argv``, or ``sys.argv[1:]``) and return its exit code;
    a usage error raises argparse's ``SystemExit(2)``.  The parser is built on
    each call, with the options of the named subcommand only, and no state
    outlives it."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    given = os.environ.get("QORTHO_PRECISION") or args.precision
    if given is not None:
        return _run(args, given)[0]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, refusal = _run(args, "double")
    if refusal is None:
        sys.stdout.write(out.getvalue())
        sys.stderr.write(err.getvalue())
        return code
    print("note: %s; rerunning at extended:%d" % (refusal, DEFAULT_EXTENDED_DIGITS),
          file=sys.stderr)
    return _run(args, "extended")[0]


if __name__ == "__main__":
    sys.exit(main())
