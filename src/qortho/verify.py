"""Named verification suites composing the library invariants.

Each suite returns a list of :class:`Check` records (name, pass/fail,
measured residual, tolerance).  The CLI renders them and derives its exit
code; the acceptance tests reuse the same machinery.  All random evaluation
points come from a caller-seeded generator, so a fixed configuration
reproduces byte-identical reports.

One run computes each quantity that depends only on the family's parameters
once, in a :class:`RunTables` that every suite of the run reads and that is
dropped when the run ends.

The orthogonality suite evaluates the table at its lattice once, with
:func:`~qortho.recurrence.lattice_vectors`; its Gram errors and Christoffel
weights (``gram_errors`` and ``weights_from_christoffel``, both kinds' code
in :mod:`qortho.recurrence`) read those vectors and the table's h_n.  The
isospectral radii come from the same factorisation of each table's
Jacobi matrix, which :mod:`qortho.spectral` forms in double, on a grid typed
by q, so an extended run deforms at its precision.
The bispectral and explicit suites each draw their ten points once and check
every degree at them: the bispectral one with one recurrence pass per point
and shift, the explicit one with one recurrence pass per point, which both
its comparison and the rerun rule of ``para_racah.eval_explicit`` read.
"""

from __future__ import annotations

import math
import random
import sys
from functools import cached_property

from . import connections, para_krawtchouk, para_racah, spectral
from .recurrence import (family_module, gram_errors, lattice_vectors, persymmetry_residual,
                         tridiagonal, weights_from_christoffel)
from .scalars import (extended_precision, is_extended, is_finite, max_keep_nan, sqrt,
                      to_extended, typed_float, unit)

__all__ = ["Check", "RunTables", "SUITES", "run_suite"]

# Pinned tolerances: relative 1e-8 scale for binary64 families, tighter
# where the quantity is exact algebra.  A default run that misses one in
# double reruns at extended precision (qortho.cli).
TOL_EXPLICIT = 1e-8
TOL_GRAM = 1e-8
TOL_WEIGHT_SUM = 1e-9
TOL_BISPECTRAL = 1e-9
TOL_EIGEN_DEGENERACY = 1e-14
TOL_PERSYM = 1e-12
TOL_PERSYM_VIOLATION = 1e-6
TOL_ISOSPECTRAL = 1e-9
TOL_CHRISTOFFEL = 1e-7
TOL_BETA = 1e-8
TOL_QRACAH = 1e-8
TOL_DUALHAHN = 1e-4
TOL_QPK_LIMIT = 1e-6

# Deformations whose spectra the isospectral suite compares with alpha = 1/2.
ISOSPECTRAL_ALPHAS = (0.1, 0.3, 0.7, 0.9)


class Check:
    """One line of a report.  ``precision_bound`` says whether a higher
    working precision may lift its failure: always for a measured line."""

    def __init__(self, name: str, passed: bool, residual: float, tolerance: float,
                 note: str = "", precision_bound: bool = True):
        self.name = name
        self.passed = passed
        self.residual = residual
        self.tolerance = tolerance
        self.note = note
        self.precision_bound = precision_bound


def _check(name, residual, tolerance, note=""):
    residual = float(residual)
    return Check(name, residual <= tolerance, residual, tolerance, note)


def _failed(name, tolerance, note, precision_bound):
    return Check(name, False, float("nan"), tolerance, note, precision_bound)


def _format_e3(x) -> str:
    """x as %.3e; a finite nonzero Decimal outside the binary64 range (its
    float is 0, subnormal or infinite) from its own digits."""
    value = float(x)
    if (x and not sys.float_info.min <= abs(value) <= sys.float_info.max
            and is_extended(x) and x.is_finite()):
        return format(x, ".3e")
    return "%.3e" % value


def _random_z(rng, fam, lo=1.15, hi=2.5):
    """A uniform evaluation point in the family's scalar type, so that an
    extended-precision run does not evaluate at binary64 points."""
    z = rng.uniform(lo, hi)
    return to_extended(z) if is_extended(fam.q) else z


class RunTables:
    """The parameter-only quantities of one family, each computed on first use.

    One instance serves one :func:`run_suite` call and is dropped with it, so
    its Decimal values are read only at the working precision that made them.
    """

    def __init__(self, fam):
        self.fam = fam

    @cached_property
    def tri(self):
        """The family's recurrence table."""
        return tridiagonal(self.fam)

    @cached_property
    def half(self):
        """The table of the same family at alpha = 1/2, the isospectral
        reference, typed by q."""
        return self.tri.at_alpha(typed_float(0.5, self.fam.q))

    @cached_property
    def grid(self):
        """The tables at the deformations in ISOSPECTRAL_ALPHAS, each alpha
        typed by q, so an extended run deforms at its own precision."""
        q = self.fam.q
        return [self.tri.at_alpha(typed_float(al, q)) for al in ISOSPECTRAL_ALPHAS]

    @cached_property
    def underflowed(self):
        """Whether a higher precision may lift a failed positivity: a double
        table with no u_n below zero, whose 0 may be a positive u_n below
        binary64.  Strands that coincide or share a point (c = a, Delta = 1,
        a / c or Delta = q^k within the strands) make a zero u_n exact, so
        no precision lifts it there."""
        fam = self.fam
        return (not is_extended(fam.q) and all(v >= 0 for v in self.tri.u)
                and not (fam.degenerate or fam._shared_point()))


# The benchmark tracer (perfbench/tracer.py) wraps both names.
gram_errors_qpk = gram_errors


# ---------------------------------------------------------------------------
# Suites over bi-lattice families
# ---------------------------------------------------------------------------


def _is_qpk(fam) -> bool:
    return isinstance(fam, para_krawtchouk.ParaKrawtchoukFamily)


def suite_orthogonality(run, rng):
    """Favard positivity, strand sums, Gram errors and the Christoffel
    cross-check; for qpr also the beta factor.  The Gram errors and the
    Christoffel weights read one :func:`lattice_vectors` evaluation.  The
    cross-check fails when the two weight routes disagree or when a lattice
    point's twist, the eigenvalue residual of the twisted vectors, is above
    its tolerance.  qpk has no alpha = 1/2 weights, so no beta factor."""
    fam, tri = run.fam, run.tri
    note = "" if _is_qpk(fam) else "min u_n = %s" % _format_e3(min(tri.u))
    checks = [Check("favard-positivity", tri.positive, 0.0 if tri.positive else 1.0, 0.5, note,
                    run.underflowed)]
    if not tri.positive:
        checks.append(_failed("gram-orthogonality", TOL_GRAM, "skipped: family is outside "
                              "the positivity region", run.underflowed))
        return checks
    lw = family_module(fam).weights(fam)
    se, so = lw.strand_sums()
    checks.append(_check("weight-sum-even", abs(se - (1 - fam.alpha)), TOL_WEIGHT_SUM))
    checks.append(_check("weight-sum-odd", abs(so - fam.alpha), TOL_WEIGHT_SUM))
    vectors, twist = lattice_vectors(tri.b, tri.u, lw.points)
    d, o = gram_errors(vectors, lw.weights, tri.h)
    checks.append(_check("gram-diagonal", d, TOL_GRAM))
    checks.append(_check("gram-off-diagonal", o, TOL_GRAM))
    cw = weights_from_christoffel(tri, vectors)
    worst = max_keep_nan(twist, *(abs(x - y) / abs(x) for x, y in zip(lw.weights, cw)))
    checks.append(_check("christoffel-cross-check", worst, TOL_CHRISTOFFEL))
    if _is_qpk(fam):
        return checks
    ratios = [w / wh for w, wh in zip(lw.weights, lw.weights_half)]
    beta_fit = (ratios[0] - ratios[1]) / (ratios[0] + ratios[1])
    checks.append(_check("beta-factor", abs(beta_fit - (1 - 2 * fam.alpha)), TOL_BETA))
    return checks


def suite_explicit(run, rng):
    """The explicit expansion against the forward recurrence at ten points
    shared by every degree: one recurrence pass per point, and one explicit
    evaluation of all degrees, which reruns a value at the digits its
    cancellation cost, read off that pass."""
    fam, tri = run.fam, run.tri
    worst = fam.q * 0
    zs = [_random_z(rng, fam) for _ in range(10)]
    recurrence = [tri.values((z + 1 / z) / 2, fam.N) for z in zs]
    rows = para_racah.eval_explicit(tri, zs, recurrence)
    for column, values in zip(zip(*rows), recurrence):
        for e, r in zip(column, values):
            # A value that is an exact zero both ways agrees: residual 0.
            worst = max_keep_nan(worst, abs(e - r) / (max(abs(r), abs(e)) or 1))
    return [_check("explicit-vs-recurrence", worst, TOL_EXPLICIT)]


def suite_bispectral(run, rng):
    """The q-difference equation at ten points shared by every degree, and
    the degeneracy lambda_n = lambda_{N-n} of its eigenvalues."""
    fam, tri = run.fam, run.tri
    zero = worst = fam.q * 0
    zs = [_random_z(rng, fam, 2.0, 3.0) for _ in range(10)]
    for row in para_racah.qdiff_residual(tri, zs):
        for res, scale in row:
            # Terms that are all exact zeros leave residual 0 over scale 0.
            worst = max_keep_nan(worst, abs(res) / (scale or 1))
    lam = [para_racah.qdiff_eigenvalue(fam, n) for n in range(fam.N + 1)]
    degen = max_keep_nan(zero, *(abs(lam[n] - lam[fam.N - n]) / abs(lam[n])
                                for n in range(1, fam.N)))
    return [
        _check("qdiff-residual", worst, TOL_BISPECTRAL),
        _check("eigenvalue-degeneracy", degen, TOL_EIGEN_DEGENERACY),
    ]


def suite_persymmetry(run, rng):
    tri = run.tri
    coeff_res = persymmetry_residual(tri)
    if run.fam.alpha != typed_float(0.5, run.fam.q):
        # Away from alpha = 1/2 the suite asserts a violation it can print.
        return [Check("persymmetry-violation", TOL_PERSYM_VIOLATION < coeff_res < math.inf,
                      coeff_res, TOL_PERSYM_VIOLATION,
                      note="expected residual above tolerance")]
    checks = [_check("coefficient-persymmetry", coeff_res, TOL_PERSYM)]
    if tri.positive:
        checks.append(_check("matrix-persymmetry", spectral.persymmetry_residual(tri),
                             TOL_PERSYM))
    return checks


def suite_isospectral(run, rng):
    """Certified radii of :func:`spectral.spectrum` over ||J||:
    ``spectrum-vs-lattice`` the family's own, and ``isospectrality`` the
    largest sum of a grid table's and the alpha = 1/2 table's radii at one
    point, which bounds how far apart their eigenvalues there lie."""
    fam, tri = run.fam, run.tri
    if not tri.positive:
        return [_failed("isospectrality", TOL_ISOSPECTRAL,
                        "skipped: Jacobi matrix is not symmetrizable", run.underflowed)]
    points = family_module(fam).lattice(fam)
    norm = spectral.matrix_norm(tri)
    ref = spectral.spectrum(run.half, points)
    dev = max_keep_nan(*(r + h for t in run.grid for r, h in zip(
        spectral.spectrum(t, points), ref)))
    gap = max_keep_nan(*(ref if tri is run.half else spectral.spectrum(tri, points)))
    return [
        _check("isospectrality", dev / norm, TOL_ISOSPECTRAL),
        _check("spectrum-vs-lattice", gap / norm, TOL_ISOSPECTRAL),
    ]


def suite_qracah(run, rng):
    fam = run.fam
    zs = [_random_z(rng, fam) for _ in range(10)]
    worst = connections.verify_qracah_identity(fam.a, fam.q, fam.N, zs)
    return [_check("qracah-identity", worst, TOL_QRACAH,
                   note="at c = a sqrt(q), alpha = 1/2")]


def suite_dualhahn(run, rng):
    fam = run.fam
    # In the family's scalar type; + 0 makes a = 1 read 0, not -0.
    a_exp = (fam.a.ln() / fam.q.ln() if is_extended(fam.q)
             else math.log(fam.a) / math.log(fam.q)) + 0
    try:
        limits = connections.dual_hahn_limit(a_exp, fam.N, range(1, fam.N))
    except connections.ExtrapolationError as exc:
        # The limit runs at LIMIT_DIGITS at any precision: no rerun changes it.
        return [_failed("dual-hahn-limit", TOL_DUALHAHN,
                        "skipped: %s at a-exponent %.6g" % (exc, a_exp), False)]
    worst = 0.0
    for lim_a, lim_c, t_a, t_c in limits:
        worst = max_keep_nan(worst, abs(lim_a - t_a) / max(1.0, abs(t_a)),
                             abs(lim_c - t_c) / max(1.0, abs(t_c)))
    return [_check("dual-hahn-limit", worst, TOL_DUALHAHN,
                   note="a-exponent %.6g" % a_exp)]


def suite_qpk_limit(run, rng):
    """Closed-form exponential-lattice coefficients vs the scaled limit of
    the q-para-Racah tables at a c = theta = 10^3, 10^4, 10^5, a / c = Delta;
    a qpr run's qpk table has the theta tables' 50-digit Delta, alpha and q."""
    fam, N = run.fam, run.fam.N
    if _is_qpk(fam):
        # Read outside the block below, so it is filled at the run's precision.
        qpk, delta = run.tri, fam.Delta
    else:
        qpk, delta = None, fam.a / fam.c
        # Refused by its range, a binary64 a / c reruns at extended precision.
        if not (is_finite(delta) and delta):
            raise (ZeroDivisionError if delta == 0 else OverflowError)(
                "a / c is outside the binary64 range")
    with extended_precision(connections.LIMIT_DIGITS):
        D, qq, al = map(to_extended, (delta, fam.q, fam.alpha))
        worst = 0 * qq  # every residual below is a Decimal
        if qpk is None:
            qpk = tridiagonal(para_krawtchouk.ParaKrawtchoukFamily(
                Delta=D, alpha=al, q=qq, N=N))
        b_rows, u_rows = [], []
        for k in (3, 4, 5):
            theta = unit(qq) * 10 ** k
            a = sqrt(theta * D)
            c = sqrt(theta / D)
            big = tridiagonal(para_racah.ParaRacahFamily(a=a, c=c, alpha=al, q=qq, N=N))
            scale_b, scale_u = 2 * a / theta, 4 * a * a / theta ** 2
            b_rows.append([scale_b * v for v in big.b])
            u_rows.append([scale_u * v for v in big.u])
        floor = unit(qq) / 10 ** 6
        for rows, closed in ((b_rows, qpk.b), (u_rows, qpk.u)):
            for steps, value in zip(zip(*rows), closed):
                ext = connections.richardson(steps, 10)[-1]
                error = abs(ext - to_extended(value))  # a double qpk table's floats
                worst = max_keep_nan(worst, error / max(floor, abs(ext)))
    return [_check("qpk-theta-limit", worst, TOL_QPK_LIMIT)]


_QPR_SUITES = {
    "orthogonality": suite_orthogonality,
    "bispectral": suite_bispectral,
    "persymmetry": suite_persymmetry,
    "explicit": suite_explicit,
    "isospectral": suite_isospectral,
    "qracah": suite_qracah,
    "dualhahn": suite_dualhahn,
    "qpk-limit": suite_qpk_limit,
}

_QPK_SUITES = {
    "orthogonality": suite_orthogonality,
    "persymmetry": suite_persymmetry,
    "qpk-limit": suite_qpk_limit,
}

SUITES = tuple(_QPR_SUITES) + ("all",)


def run_suite(name: str, fam, seed: int = 0):
    """Run one named suite (or 'all') and return its Check list; a suite the
    family's kind does not define raises ValueError."""
    kind, table = ("qpk", _QPK_SUITES) if _is_qpk(fam) else ("qpr", _QPR_SUITES)
    if name == "all":
        names = tuple(table)
    elif name in table:
        names = (name,)
    else:
        raise ValueError("suite %r is not defined for kind %r" % (name, kind))
    run = RunTables(fam)
    checks = []
    for suite_name in names:
        rng = random.Random(seed)
        for chk in table[suite_name](run, rng):
            chk.name = "%s/%s" % (suite_name, chk.name)
            checks.append(chk)
    return checks
