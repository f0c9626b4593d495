"""Print each verify suite's share of wall time over the first blocks of the
verify-ext benchmark workload at seeds 1 and 2 (60 operations), in-process.

The operations come from ``perfbench/workloads.py``, read and not edited:
its ``WARMUP`` commands run once untimed, then every operation of
``prefix("verify-ext", seed)`` runs through ``qortho.cli.main`` with its
stdout discarded.  Each suite function of ``verify`` is timed around its
whole run (its checks are drawn into a list inside the timer), so a suite
that builds a run's tables first, as orthogonality does, carries that
build.  The rest of each operation's wall time is printed as "outside the
suites".  The script exits 1 if any operation exits non-zero.

    PYTHONPATH=src python tests/suite_shares.py

pytest does not collect this file: its name has no ``test_`` prefix.
"""

import collections
import contextlib
import io
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from qortho import verify  # noqa: E402
from qortho.cli import main  # noqa: E402

SEEDS = (1, 2)


def _timed(name, fn, spent):
    def suite(run, rng):
        start = time.perf_counter()
        try:
            return list(fn(run, rng))
        finally:
            spent[name] += time.perf_counter() - start
    return suite


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def main_shares() -> int:
    os.environ.pop("QORTHO_PRECISION", None)  # it would override the commands' precision
    for argv in workloads.WARMUP["verify-ext"]:
        _run(argv)
    spent = collections.Counter()
    for table in (verify._QPR_SUITES, verify._QPK_SUITES):
        for name, fn in list(table.items()):
            table[name] = _timed(name, fn, spent)
    ops = [op for seed in SEEDS for op in workloads.prefix("verify-ext", seed)]
    failed = 0
    start = time.perf_counter()
    for argv in ops:
        failed += _run(argv) != 0
    wall = time.perf_counter() - start
    print("%d operations in %.2f s, %d exited non-zero" % (len(ops), wall, failed))
    print("| suite | share |\n| --- | --- |")
    for name, seconds in spent.most_common():
        print("| %s | %.1f%% |" % (name, 100 * seconds / wall))
    print("| outside the suites | %.1f%% |" % (100 * (wall - sum(spent.values())) / wall))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_shares())
