"""Scan random families inside and outside the positivity region and report
how each command ended.

Each family is drawn from a seeded generator: 60% qpr with a and c
log-uniform in [1e-3, 31.6], 40% qpk with Delta log-uniform in [1e-2, 31.6],
alpha uniform in [0.05, 0.95], q uniform in [0.005, 0.999] and N from 1 to
70.  A family is inside its kind's positivity region when every u_n of its
table at 30 digits is positive; the scan draws until it has ``--draws``
families inside and as many outside.  Each family runs `coeffs`,
`lattice-weights` and `verify --suite all` with no precision flag, in
process.  For each population and command the script prints the exit codes,
the cause of each rerun (range: an overflow, an underflow or a non-finite
output; digits: a failed check or an uncertified Gram error), the failing
checks of the verify reports with their counts, how many of the refused
commands exit 0 at ``--precision extended:120``, and, per check, how many
of its failing lines pass there.  A verify run outside the region exits 4
at any precision on favard-positivity, so only the last count shows a line
that more digits lift.  Its stdout is the same for the same seed; the time
taken goes to stderr.  It reports and does not gate, so it exits 0.

    PYTHONPATH=src python tests/domain_scan.py [--seed 1] [--draws 100]

pytest does not collect this file: its name has no ``test_`` prefix.
"""

import argparse
import collections
import contextlib
import io
import math
import os
import random
import sys
import time

from qortho.cli import main
from qortho.para_krawtchouk import ParaKrawtchoukFamily
from qortho.para_racah import ParaRacahFamily
from qortho.recurrence import tridiagonal
from qortho.scalars import as_scalar, extended_precision

COMMANDS = ("coeffs", "lattice-weights", "verify --suite all")
RERUN = "; rerunning at extended:"
DIGITS_REFUSALS = ("verification failed", "orthogonality not certified")


def _log_uniform(rng, lo, hi):
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def draw(rng):
    """(kind, {option: text}) of one family, each value printed to 6 digits."""
    if rng.random() < 0.6:
        kind = "qpr"
        params = {"a": _log_uniform(rng, 1e-3, 31.6), "c": _log_uniform(rng, 1e-3, 31.6)}
    else:
        kind = "qpk"
        params = {"Delta": _log_uniform(rng, 1e-2, 31.6)}
    params.update(alpha=rng.uniform(0.05, 0.95), q=rng.uniform(0.005, 0.999))
    texts = {name: "%.6g" % value for name, value in params.items()}
    texts["N"] = str(rng.randint(1, 70))
    return kind, texts


def positive(kind, texts):
    """Whether every u_n of the family's table at 30 digits is positive, or
    None when the family or its table is refused."""
    cls = ParaRacahFamily if kind == "qpr" else ParaKrawtchoukFamily
    try:
        with extended_precision(30):
            fam = cls(N=int(texts["N"]), **{name: as_scalar(text, True)
                                            for name, text in texts.items() if name != "N"})
            return tridiagonal(fam).positive
    except (ArithmeticError, ValueError):
        return None


def marked(out, status):
    """The names of the checks a verify report marks ``status``, pass or fail."""
    return [line.split(",")[0] for line in out.splitlines()[1:]
            if line.split(",")[1:2] == [status]]


def run(argv):
    """(exit code, stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    return code, out.getvalue(), err.getvalue()


def scan(rng, draws):
    """{(population, command): Counter of what happened} over ``draws``
    families inside the positivity region and as many outside."""
    families = {"inside": [], "outside": []}
    while min(map(len, families.values())) < draws:
        kind, texts = draw(rng)
        inside = positive(kind, texts)
        population = {True: "inside", False: "outside"}.get(inside)
        if population and len(families[population]) < draws:
            families[population].append((kind, texts))
    report = collections.defaultdict(collections.Counter)
    for population, members in families.items():
        for kind, texts in members:
            family = "--kind %s %s" % (kind, " ".join(
                "--%s %s" % item for item in texts.items()))
            for command in COMMANDS:
                tally = report[population, command]
                argv = "%s %s" % (command, family)
                code, out, err = run(argv)
                tally["exit %d" % code] += 1
                if RERUN in err:
                    digits = err.startswith(tuple("note: " + r for r in DIGITS_REFUSALS))
                    tally["rerun: %s" % ("digits" if digits else "range")] += 1
                failed = marked(out, "fail")
                tally.update("fails " + name for name in failed)
                if code != 0:
                    tally["refused"] += 1
                    lifted, high, _ = run(argv + " --precision extended:120")
                    tally["lifted by extended:120"] += lifted == 0
                    passed = marked(high, "pass")
                    tally.update("lifted " + name for name in failed if name in passed)
    return report


def main_scan(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--draws", type=int, default=100,
                        help="families inside the region, and as many outside")
    args = parser.parse_args(argv)
    os.environ.pop("QORTHO_PRECISION", None)  # it would override the default
    start = time.perf_counter()
    report = scan(random.Random(args.seed), args.draws)
    # The time goes to stderr, so stdout is the same for the same seed.
    print("%.1f s" % (time.perf_counter() - start), file=sys.stderr)
    print("domain scan, seed %d: %d families inside and %d outside"
          % (args.seed, args.draws, args.draws))
    for (population, command), tally in report.items():
        exits = ", ".join("%d %s" % (tally[key], key) for key in sorted(tally)
                          if key.startswith("exit"))
        print("%s, %s: %s" % (population, command, exits))
        print("  reruns: %d range, %d digits; refused %d, lifted by extended:120 %d" % (
            tally["rerun: range"], tally["rerun: digits"], tally["refused"],
            tally["lifted by extended:120"]))
        fails = [key[len("fails "):] for key in sorted(tally) if key.startswith("fails ")]
        for name in fails:
            print("  %s in %d" % (name, tally["fails " + name]))
        if fails:
            print("  failing lines that pass at extended:120: %s" % ", ".join(
                "%s %d" % (name, tally["lifted " + name]) for name in fails))
    return 0


if __name__ == "__main__":
    sys.exit(main_scan())
