"""Command-line front end: coefficient tables, lattice/weight tables, and
verification suites, with CSV or JSON output.

Exit codes: 0 success, 2 invalid parameters or usage, 3 degenerate
configuration (coincident strands), 4 verification failure.  Data goes to
stdout, diagnostics to stderr.  A fixed configuration (including --seed and
the precision mode) produces byte-identical output.

The environment variable QORTHO_PRECISION ("double", "extended" or
"extended:P") overrides the --precision flag.  When neither is given,
families outside the moderate parameter box (a, c in [0.2, 0.95],
q in [0.3, 0.8], N <= 9) are promoted to extended precision automatically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import para_krawtchouk, para_racah, verify
from .para_racah import DegenerateFamilyError
from .qseries import SingularSeriesError
from .recurrence import family_module, tridiagonal
from .scalars import DEFAULT_EXTENDED_DIGITS, as_scalar, extended_precision, format_scalar

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
        if self.extended:
            return extended_precision(self.digits)
        import contextlib

        return contextlib.nullcontext()

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


def _build_family(args, prec: _Precision):
    ext = prec.extended
    if args.kind == "qpr":
        if args.a is None or args.c is None:
            raise ValueError("kind 'qpr' requires --a and --c")
        return para_racah.ParaRacahFamily(
            a=as_scalar(args.a, ext), c=as_scalar(args.c, ext),
            alpha=as_scalar(args.alpha, ext), q=as_scalar(args.q, ext), N=args.N)
    if args.Delta is None:
        raise ValueError("kind 'qpk' requires --Delta")
    return para_krawtchouk.ParaKrawtchoukFamily(
        Delta=as_scalar(args.Delta, ext), alpha=as_scalar(args.alpha, ext),
        q=as_scalar(args.q, ext), N=args.N)


def _family_params(args) -> dict:
    out = {"kind": args.kind, "alpha": args.alpha, "q": args.q, "N": args.N,
           "seed": args.seed}
    if args.kind == "qpr":
        out.update(a=args.a, c=args.c)
    else:
        out.update(Delta=args.Delta)
    return out


def _emit_json(payload):
    print(json.dumps(payload, sort_keys=True))


def _json_number(x, prec: _Precision):
    # Extended-precision values do not fit a JSON double; ship them as strings.
    return prec.fmt(x) if prec.extended else float(x)


def cmd_coeffs(args) -> int:
    prec = _resolve_precision(args)
    with prec.context():
        tri = tridiagonal(_build_family(args, prec))
        rows = [(n, b, u) for n, (b, u) in enumerate(zip(tri.b, (0.0,) + tri.u))]
        if args.format == "csv":
            print("n,b,u")
            for n, b, u in rows:
                print("%d,%s,%s" % (n, prec.fmt(b), prec.fmt(u)))
        else:
            _emit_json({
                "schema_version": SCHEMA_VERSION,
                "command": "coeffs",
                "precision": prec.label,
                "params": _family_params(args),
                "rows": [{"n": n, "b": _json_number(b, prec),
                          "u": _json_number(u, prec)} for n, b, u in rows],
            })
    return EXIT_OK


# Name of the lattice variable in lattice-weights output, per family kind.
_POINT_KEY = {"qpr": "x", "qpk": "y"}


def cmd_lattice_weights(args) -> int:
    prec = _resolve_precision(args)
    with prec.context():
        fam = _build_family(args, prec)
        lw = family_module(fam).weights(fam)
        pts = lw.points
        gram_max = verify.max_keep_nan(*verify.gram_errors(fam, lw))
        point_key = _POINT_KEY[args.kind]
        sum_even = sum(lw.weights[i] for i in range(0, fam.N + 1, 2))
        sum_odd = sum(lw.weights[i] for i in range(1, fam.N + 1, 2))
        if args.format == "csv":
            print("s,%s,w" % point_key)
            for s in range(fam.N + 1):
                print("%d,%s,%s" % (s, prec.fmt(pts[s]), prec.fmt(lw.weights[s])))
            print("# sum_even = %s" % prec.fmt(sum_even))
            print("# sum_odd = %s" % prec.fmt(sum_odd))
            print("# gram_max_error = %.3e" % gram_max)
        else:
            _emit_json({
                "schema_version": SCHEMA_VERSION,
                "command": "lattice-weights",
                "precision": prec.label,
                "params": _family_params(args),
                "rows": [{"s": s, point_key: _json_number(pts[s], prec),
                          "w": _json_number(lw.weights[s], prec)}
                         for s in range(fam.N + 1)],
                "trailer": {
                    "sum_even": _json_number(sum_even, prec),
                    "sum_odd": _json_number(sum_odd, prec),
                    "gram_max_error": float(gram_max),
                },
            })
    return EXIT_OK


def cmd_verify(args) -> int:
    prec = _resolve_precision(args)
    with prec.context():
        fam = _build_family(args, prec)
        if args.suite != "all" and args.suite not in verify.suite_names_for(fam):
            raise ValueError("suite %r is not defined for kind %r"
                             % (args.suite, args.kind))
        checks = verify.run_suite(args.suite, fam, seed=args.seed)
    if args.format == "csv":
        print("check,status,residual,tolerance,note")
        for chk in checks:
            print("%s,%s,%.6e,%.6e,%s" % (
                chk.name, "pass" if chk.passed else "fail",
                chk.residual, chk.tolerance, chk.note))
    else:
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "precision": prec.label,
            "suite": args.suite,
            "params": _family_params(args),
            "checks": [{
                "name": chk.name,
                "status": "pass" if chk.passed else "fail",
                "residual": chk.residual,
                "tolerance": chk.tolerance,
                "note": chk.note,
            } for chk in checks],
        })
    if all(chk.passed for chk in checks):
        return EXIT_OK
    print("verification failed: %d of %d checks"
          % (sum(not c.passed for c in checks), len(checks)), file=sys.stderr)
    return EXIT_VERIFY


def _add_family_arguments(p: argparse.ArgumentParser):
    p.add_argument("--kind", choices=("qpr", "qpk"), default="qpr",
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qortho",
        description="Bi-lattice orthogonal polynomial tables and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeffs = sub.add_parser("coeffs", help="emit the recurrence table (n, b_n, u_n)")
    _add_family_arguments(p_coeffs)
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_lw = sub.add_parser("lattice-weights",
                          help="emit lattice points and orthogonality weights")
    _add_family_arguments(p_lw)
    p_lw.set_defaults(func=cmd_lattice_weights)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    _add_family_arguments(p_verify)
    p_verify.add_argument("--suite", choices=verify.SUITES, default="all")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegenerateFamilyError as exc:
        print("degenerate configuration: %s" % exc, file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, SingularSeriesError, ArithmeticError) as exc:
        print("invalid parameters: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
