"""Run the Baseline grid in-process and report how each command printed.

The grid is `coeffs`, `lattice-weights` and `verify --suite all`, with no
precision flag, for qpr a 0.9, c 0.7, alpha 0.3 and qpk Delta 1.3,
alpha 0.3, at N 9, 16, 20, 30, 40 and 60 and q 0.2, 0.3 and 0.5: 108
commands.  A command with no precision given runs in double and reruns
once at 50 digits when double is refused; the rerun's stderr note tells
the two apart.  The script prints how many printed in double and how many
reran, and exits 1 if any command exits non-zero.

    PYTHONPATH=src python tests/baseline_grid.py

pytest does not collect this file: its name has no ``test_`` prefix.
"""

import contextlib
import io
import os
import sys
import time

from qortho.cli import main

COMMANDS = ("coeffs", "lattice-weights", "verify --suite all")
FAMILIES = ("--kind qpr --a 0.9 --c 0.7 --alpha 0.3", "--kind qpk --Delta 1.3 --alpha 0.3")
NS = (9, 16, 20, 30, 40, 60)
QS = ("0.2", "0.3", "0.5")
RERUN = "; rerunning at extended:"


def grid():
    return ["%s %s --q %s --N %d" % (command, family, q, N)
            for command in COMMANDS for family in FAMILIES for N in NS for q in QS]


def run(argv):
    """(exit code, stderr) of one command, its stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv.split())
    return code, err.getvalue()


def main_grid() -> int:
    os.environ.pop("QORTHO_PRECISION", None)  # it would override the default
    double = rerun = 0
    failed = []
    start = time.perf_counter()
    for argv in grid():
        code, err = run(argv)
        if code != 0:
            failed.append((argv, code, err))
        elif RERUN in err:
            rerun += 1
        else:
            double += 1
    elapsed = time.perf_counter() - start
    for argv, code, err in failed:
        print("exit %d: qortho %s\n%s" % (code, argv, err), end="")
    print("%d commands in %.1f s: %d in double, %d rerun, %d failed"
          % (len(grid()), elapsed, double, rerun, len(failed)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_grid())
