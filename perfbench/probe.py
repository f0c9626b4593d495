"""Host-speed probe: a fixed piece of work timed around every measurement.

The benchmark host is a shared KVM guest.  Contention that the guest cannot
see toggles the speed of interpreter-bound code between two levels about
1.7x apart, in phases of a fraction of a second to a few seconds, so raw
wall times of identical runs differ by up to 2x.  qortho is interpreter-bound
throughout (mpmath runs on its pure-Python backend), and this probe mixes
the same kinds of work: argparse, 50-digit mpmath arithmetic, float
arithmetic, string formatting and json.  Each measured interval is scaled by
REFERENCE_S over the mean of the probe times just before and just after it,
so every reported time is "seconds at the reference speed": the speed at
which one probe takes REFERENCE_S, the uncontended speed of a Xeon Sapphire
Rapids vCPU (Python 3.11).  Raw wall times are kept next to the scaled
ones in the result files.  The probe does not depend on the commit under
test.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import time

import mpmath

REFERENCE_S = 0.003
MAX_AGE_S = 0.1  # a probe older than this is retaken
TICK_S = 0.2  # probe interval inside in-process operations


def _work():
    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="command")
    for name in ("first", "second", "third"):
        p = sub.add_parser(name)
        for opt in ("--kind", "--a", "--c", "--d", "--alpha", "--q", "--N", "--format"):
            p.add_argument(opt)
    parser.parse_args(["second", "--kind", "x", "--q", "0.5", "--N", "3"])
    with mpmath.workdps(50):
        x, y = mpmath.mpf("0.731"), mpmath.mpf(1)
        for i in range(150):
            y = (y * x + 1) / (x + i) + x ** 3
    acc = 0.0
    for i in range(1500):
        q = 0.5 + i * 1e-4
        acc += (q ** 3 - 1) * (q * q - 0.3) / (2 * q * (q - 1.5))
    return json.dumps({"y": str(y), "rows": ["%.17g" % (acc * i) for i in range(60)]})


def probe() -> float:
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class Prober:
    """Probe times taken around operations on the benchmark's one CPU.

    ``around(run)`` probes before and after ``run()`` (reusing a probe less
    than MAX_AGE_S old) and returns its result, its wall seconds and those
    seconds scaled to the reference speed by the median probe time.  With
    ``in_op``, SIGALRM also probes every TICK_S while ``run()`` is running
    in this process; the ticks' own time is taken out of the wall seconds.
    A probe must not overlap another process's work on the same CPU, so
    operations in child processes are probed only around.
    """

    def __init__(self, in_op=False):
        self._latest = None
        self._taken = -math.inf
        self._in_op = in_op
        self._ticks = []

    def fresh(self) -> float:
        """The latest probe time, retaken when older than MAX_AGE_S."""
        if time.perf_counter() - self._taken > MAX_AGE_S:
            self._latest = probe()
            self._taken = time.perf_counter()
        return self._latest

    @staticmethod
    def scale(seconds, *probes) -> float:
        """Wall seconds scaled to the reference speed by the probes taken
        around and during them."""
        return seconds * REFERENCE_S / statistics.median(probes)

    def _tick(self, signum, frame):
        self._ticks.append(probe())

    def around(self, run):
        """(result, wall seconds, scaled seconds) of ``run()``."""
        before = self.fresh()
        self._ticks = []
        if self._in_op:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            result = run()
        finally:
            if self._in_op:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            seconds = time.perf_counter() - start - sum(self._ticks)
        return result, seconds, self.scale(seconds, before, self.fresh(), *self._ticks)
