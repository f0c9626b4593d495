"""Command-line front end: coefficient tables, lattice/weight tables, and
verification suites, with CSV or JSON output.

Exit codes: 0 success, 2 invalid parameters, usage, numeric overflow or a
division by zero (a denominator that underflows or vanishes at the working
precision), 3 degenerate configuration (coincident strands), 4 verification
failure, non-finite output or a lattice-weights Gram error above tolerance.
Data goes to stdout, diagnostics to stderr.  A fixed configuration (including
--seed and the precision mode) produces byte-identical output.

The environment variable QORTHO_PRECISION ("double", "extended" or
"extended:P") overrides the --precision flag.  When neither is given,
families outside the moderate parameter box (a, c in [0.2, 0.95],
q in [0.3, 0.8], N <= 9) are promoted to extended precision automatically.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import para_krawtchouk, para_racah, verify
from .qseries import SingularSeriesError
from .recurrence import DegenerateFamilyError, family_module, gram_errors, tridiagonal
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


def _inside_box(args) -> bool:
    try:
        q = float(args.q)
        n_ok = args.N <= 9 and 0.3 <= q <= 0.8
        if args.kind == "qpr":
            return (n_ok and 0.2 <= float(args.a) <= 0.95
                    and 0.2 <= float(args.c) <= 0.95)
        return n_ok
    except (TypeError, ValueError):
        return False


def _resolve_precision(args) -> _Precision:
    env = os.environ.get("QORTHO_PRECISION")
    if env:
        return _parse_precision(env)
    if args.precision is not None:
        return _parse_precision(args.precision)
    if not _inside_box(args):
        print("note: parameters outside the double-precision box; "
              "promoting to extended precision", file=sys.stderr)
        return _Precision(True, DEFAULT_EXTENDED_DIGITS)
    return _Precision(False, 0)


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


def _refuse_non_finite(printed) -> int:
    """EXIT_VERIFY, with a count on stderr, when a printed value is nan or
    inf; EXIT_OK otherwise."""
    bad = sum(not is_finite(v) for v in printed)
    if not bad:
        return EXIT_OK
    print("non-finite output: %d of %d printed values are nan or inf"
          % (bad, len(printed)), file=sys.stderr)
    return EXIT_VERIFY


def cmd_coeffs(args, prec: _Precision) -> int:
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
        printed = [v for _, b, u in rows for v in (b, u)]
    return _refuse_non_finite(printed)


def cmd_lattice_weights(args, prec: _Precision) -> int:
    with prec.context():
        fam = _build_family(args, prec)
        tri = tridiagonal(fam)
        lw = family_module(fam).weights(tri)
        pts = lw.points
        gram_max = max_keep_nan(*gram_errors(tri, lw))
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
        printed = (*pts, *lw.weights, sum_even, sum_odd, gram_max)
    if _refuse_non_finite(printed):
        return EXIT_VERIFY
    if gram_max > verify.TOL_GRAM:
        print("orthogonality not certified: gram_max_error = %.3e exceeds %.0e"
              % (gram_max, verify.TOL_GRAM), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args, prec: _Precision) -> int:
    with prec.context():
        checks = verify.run_suite(args.suite, _build_family(args, prec), seed=args.seed)
    if args.format == "csv":
        print("check,status,residual,tolerance,note")
        for chk in checks:
            print("%s,%s,%.6e,%.6e,%s" % (
                chk.name, "pass" if chk.passed else "fail",
                chk.residual, chk.tolerance, chk.note))
    else:
        _emit_json(args, prec, suite=args.suite, checks=[{
            "name": chk.name,
            "status": "pass" if chk.passed else "fail",
            "residual": _json_float(chk.residual),
            "tolerance": _json_float(chk.tolerance),
            "note": chk.note,
        } for chk in checks])
    if all(chk.passed for chk in checks):
        return EXIT_OK
    print("verification failed: %d of %d checks"
          % (sum(not c.passed for c in checks), len(checks)), file=sys.stderr)
    return EXIT_VERIFY


def _family_options() -> argparse.ArgumentParser:
    """The options of every subcommand, each added once.  The subcommands share
    these actions, so a set_defaults on one of their dests would reach all three."""
    p = argparse.ArgumentParser(add_help=False)
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
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qortho", description=(
        "Bi-lattice orthogonal polynomial tables and verification."))
    # Given prog, argparse need not format a usage line to learn the prefix.
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    family = [_family_options()]
    sub.add_parser("coeffs", parents=family, help="emit the recurrence table (n, b_n, u_n)"
                   ).set_defaults(func=cmd_coeffs)
    sub.add_parser("lattice-weights", parents=family,
                   help="emit lattice points and orthogonality weights"
                   ).set_defaults(func=cmd_lattice_weights)
    p_verify = sub.add_parser("verify", parents=family, help="run a verification suite")
    p_verify.add_argument("--suite", choices=verify.SUITES, default="all")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; a usage error raises argparse's
    ``SystemExit(2)``.  The parser is built on each call and no state outlives it."""
    args = build_parser().parse_args(argv)
    try:
        # Before the precision, whose box test reads the lattice options.
        _require_lattice_options(args)
        prec = _resolve_precision(args)
        return args.func(args, prec)
    except DegenerateFamilyError as exc:
        print("degenerate configuration: %s" % exc, file=sys.stderr)
        return EXIT_DEGENERATE
    except OverflowError as exc:
        # A binary64 overflow's own text is an errno tuple.
        detail = (exc if prec.extended else "a value exceeds the binary64 range; "
                  "rerun with --precision extended or extended:P")
        print("numeric overflow at %s precision: %s" % (prec.label, detail), file=sys.stderr)
        return EXIT_USAGE
    except ZeroDivisionError as exc:
        # Caught before ArithmeticError: a valid a = 1e-160 underflows a
        # binary64 denominator to zero.  mpmath raises it without a message.
        print("numeric underflow or zero denominator at %s precision: %s"
              % (prec.label, str(exc) or "division by zero"), file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, SingularSeriesError, ArithmeticError) as exc:
        print("invalid parameters: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
