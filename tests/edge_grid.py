"""Run the ROADMAP edge grid in-process and report how each command ended.

The grid is `verify --suite all`, with no precision flag, for the Baseline
families (qpr a 0.9, c 0.7, alpha 0.3 and qpk Delta 1.3, alpha 0.3) at N 20,
30, 40, 51 and 60 and q 0.01, 0.02, 0.05 and 0.1: 40 commands below the
Baseline's q 0.2.  The script prints the count of each exit code and each
failing check with the number of commands it fails in, then exits 0: it
reports and does not gate, since some of these commands fail until the
limit digits, the spectrum certificate and the rerun digits follow the
family (open items in ROADMAP.md).

    PYTHONPATH=src python tests/edge_grid.py

pytest does not collect this file: its name has no ``test_`` prefix.
"""

import collections
import contextlib
import io
import os
import sys
import time

from baseline_grid import FAMILIES
from qortho.cli import main

NS = (20, 30, 40, 51, 60)
QS = ("0.01", "0.02", "0.05", "0.1")


def grid():
    return ["verify --suite all %s --q %s --N %d" % (family, q, N)
            for family in FAMILIES for N in NS for q in QS]


def run(argv):
    """(exit code, the names of the checks the report marks failed)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv.split())
    failed = [line.split(",")[0] for line in out.getvalue().splitlines()[1:]
              if line.split(",")[1:2] == ["fail"]]
    return code, failed


def main_grid() -> int:
    os.environ.pop("QORTHO_PRECISION", None)  # it would override the default
    codes, checks = collections.Counter(), collections.Counter()
    start = time.perf_counter()
    for argv in grid():
        code, failed = run(argv)
        codes[code] += 1
        checks.update(failed)
    elapsed = time.perf_counter() - start
    print("%d commands in %.1f s: %s" % (len(grid()), elapsed, ", ".join(
        "%d exit %d" % (count, code) for code, count in sorted(codes.items()))))
    for name, count in sorted(checks.items()):
        print("  %s fails in %d" % (name, count))
    return 0


if __name__ == "__main__":
    sys.exit(main_grid())
