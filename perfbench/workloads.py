"""Seeded operation streams for the three benchmark workloads.

An operation is a qortho command line (without the program name).  Every
stream is cut into blocks: a block is one stratified draw over the workload's
discrete choices (command, family kind, output format, N), so any whole
number of blocks has the same mix, and the continuous family parameters are
fresh draws from the seeded generator.  The benchmark stops only at block
boundaries.

Families come from each kind's documented positivity region:

* ``qpr``: a, c in [0.2, 0.95], |a - c| >= 1e-3, q < a/c < 1/q, and for
  even N additionally a q < c < a (the rule of ``verify.sample_family``);
* ``qpk``: q < Delta < 1/q for odd N and 1 < Delta < 1/q for even N, with
  Delta kept 0.01 away from the degenerate Delta = 1.

``cli-proc`` runs ``verify`` of ``qpr`` at N = 1-6 only.  From N = 7 on,
the default (double) precision fails ``christoffel-cross-check`` (and now
and then ``coefficient-persymmetry``) for part of the box, and the CLI exits
4: rarely at N = 7 (near the edges of the positivity region), for about 1 in
15 families at N = 8 and 1 in 7 at N = 9 (mostly q < 0.5, or a close to c).
The cross-check residual grows about tenfold per step in N; at N <= 6 it
stays a third or less of its tolerance.  In the timed stream the defect
would make a run's failure count depend on whether its seed lands on such a
family.  It is measured instead by the fixed ``KNOWN_DEFECT``
operations, which every run executes and reports apart from the timed ones.

Parameters are printed with four decimals, as a user would type them, and
the inequalities are checked on the printed values with a small margin.
This module uses only the standard library: the program under test sees the
generated command lines and nothing else.
"""

from __future__ import annotations

import itertools
import random

ALPHAS = ("0.25", "0.5", "0.75")
MARGIN = 1e-3

BOX_Q = (0.3, 0.8)
FULL_Q = (0.2, 0.9)
# Largest N of a cli-proc qpr verify (the known defect starts at N = 7).
VERIFY_QPR_MAX_N = 6


def _fmt(x: float) -> str:
    return "%.4f" % x


def _draw_qpr(rng: random.Random, N: int, q_range) -> list:
    while True:
        q = float(_fmt(rng.uniform(*q_range)))
        a = float(_fmt(rng.uniform(0.2, 0.95)))
        c = float(_fmt(rng.uniform(0.2, 0.95)))
        if abs(a - c) < 1e-3:
            continue
        if N % 2 == 0 and not a * q * (1 + MARGIN) < c < a * (1 - MARGIN):
            continue
        if not q * (1 + MARGIN) < a / c < (1 - MARGIN) / q:
            continue
        return ["--kind", "qpr", "--a", _fmt(a), "--c", _fmt(c),
                "--q", _fmt(q), "--N", str(N)]


def _draw_qpk(rng: random.Random, N: int, q_range) -> list:
    while True:
        q = float(_fmt(rng.uniform(*q_range)))
        lo = 1.0 if N % 2 == 0 else q
        delta = float(_fmt(rng.uniform(lo, 1 / q)))
        if abs(delta - 1) < 0.01:
            continue
        if not lo * (1 + MARGIN) < delta < (1 - MARGIN) / q:
            continue
        return ["--kind", "qpk", "--Delta", _fmt(delta),
                "--q", _fmt(q), "--N", str(N)]


def _family(rng, kind, N, q_range) -> list:
    draw = _draw_qpr if kind == "qpr" else _draw_qpk
    return draw(rng, N, q_range) + ["--alpha", rng.choice(ALPHAS)]


def _cli_proc_block(rng):
    # 3 commands x 2 kinds x 2 formats; N uniform in 1..9 (1..6 for a qpr
    # verify), default precision.
    cells = list(itertools.product(("coeffs", "lattice-weights", "verify"),
                                   ("qpr", "qpk"), ("csv", "json")))
    rng.shuffle(cells)
    for cmd, kind, fmt in cells:
        N = rng.randint(1, VERIFY_QPR_MAX_N if (cmd, kind) == ("verify", "qpr") else 9)
        argv = [cmd] + _family(rng, kind, N, BOX_Q) + ["--format", fmt]
        if cmd == "verify":
            argv += ["--suite", "all"]
        yield argv


def _tables_box_block(rng):
    # 2 commands x 2 kinds x 2 formats x N in 1..9, default precision.
    cells = list(itertools.product(("coeffs", "lattice-weights"), ("qpr", "qpk"),
                                   ("csv", "json"), range(1, 10)))
    rng.shuffle(cells)
    for cmd, kind, fmt, N in cells:
        yield [cmd] + _family(rng, kind, N, BOX_Q) + ["--format", fmt]


def _verify_ext_block(rng):
    # qpr twice at every N in 5..16 plus qpk at six N, 50-digit extended precision.
    # Costs come in pairs of N (6-7, 8-9, 10-11, ...) and every qpk costs less
    # than qpr at N = 8, so the median of the 30 operations falls inside the
    # 8-9 cluster rather than on the step between two clusters.
    cells = [("qpr", N) for N in range(5, 17)] * 2 + [("qpk", N) for N in range(6, 17, 2)]
    rng.shuffle(cells)
    for kind, N in cells:
        yield (["verify"] + _family(rng, kind, N, FULL_Q)
               + ["--format", rng.choice(("csv", "json")),
                  "--suite", "all", "--precision", "extended"])


WORKLOADS = {
    "cli-proc": _cli_proc_block,
    "tables-box": _tables_box_block,
    "verify-ext": _verify_ext_block,
}

# Fixed warm-up operations, run once after import and before timing.
WARMUP = {
    "tables-box": [
        [cmd, *fam, "--alpha", "0.5", "--N", "3", "--format", fmt]
        for cmd in ("coeffs", "lattice-weights")
        for fam in (["--kind", "qpr", "--a", "0.9", "--c", "0.7", "--q", "0.5"],
                    ["--kind", "qpk", "--Delta", "1.2", "--q", "0.5"])
        for fmt in ("csv", "json")
    ],
    "verify-ext": [
        ["verify", *fam, "--alpha", "0.5", "--N", "3", "--suite", "all",
         "--precision", "extended"]
        for fam in (["--kind", "qpr", "--a", "0.9", "--c", "0.7", "--q", "0.5"],
                    ["--kind", "qpk", "--Delta", "1.2", "--q", "0.5"])
    ],
}

# In-box families that the CLI refuses at its default precision (exit 4 from
# christoffel-cross-check at N = 7 near the a/c < 1/q edge, at N = 8 with a
# small q and with a close to c, and at N = 9 together with
# coefficient-persymmetry).
# Every run executes them after measuring and reports how many fail; a fix
# of the precision choice shows as that count falling to 0.
KNOWN_DEFECT = [
    ["verify", "--kind", "qpr", "--a", a, "--c", c, "--q", q, "--N", N, "--alpha", alpha,
     "--format", "csv", "--suite", "all"]
    for a, c, q, N, alpha in (("0.7107", "0.2347", "0.3274", "7", "0.75"),
                              ("0.6678", "0.5176", "0.3074", "8", "0.25"),
                              ("0.8176", "0.8146", "0.5220", "8", "0.25"),
                              ("0.2137", "0.4430", "0.3232", "9", "0.5"))
]

# Operations in the deterministic prefix that a traced run executes and the
# stdout manifest records: whole blocks, about 2-30 s of untraced work.
TRACE_BLOCKS = {"cli-proc": 2, "tables-box": 3, "verify-ext": 1}


def blocks(workload: str, seed: int):
    """Endless iterator of blocks (lists of argv lists) for one seed."""
    make = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    while True:
        yield list(make(rng))


def prefix(workload: str, seed: int) -> list:
    """The operations of the first TRACE_BLOCKS blocks, flattened."""
    return [op for block in itertools.islice(blocks(workload, seed),
                                             TRACE_BLOCKS[workload])
            for op in block]
