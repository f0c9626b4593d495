"""Named verification suites composing the library invariants.

Each suite returns a list of :class:`Check` records (name, pass/fail,
measured residual, tolerance).  The CLI renders them and derives its exit
code; the acceptance tests reuse the same machinery.  All random evaluation
points come from a caller-seeded generator, so a fixed configuration
reproduces byte-identical reports.

One run computes each quantity that depends only on the family's parameters
once, in a :class:`RunTables` that every suite of the run reads and that is
dropped when the run ends.

The Gram errors and the Christoffel weights are :mod:`qortho.recurrence`'s,
one code for both kinds, called here as ``gram_errors`` and
``para_racah.weights_from_christoffel``.
"""

from __future__ import annotations

import math
import random
from functools import cached_property

from . import connections, para_krawtchouk, para_racah, spectral
from .recurrence import family_module, gram_errors, persymmetry_residual, tridiagonal
from .scalars import is_mp, max_keep_nan

__all__ = ["Check", "RunTables", "SUITES", "run_suite", "sample_family"]

# Pinned tolerances: relative 1e-8 scale for binary64 families in the
# moderate parameter box, tighter where the quantity is exact algebra.
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
    def __init__(self, name: str, passed: bool, residual: float, tolerance: float,
                 note: str = ""):
        self.name = name
        self.passed = passed
        self.residual = residual
        self.tolerance = tolerance
        self.note = note


def _check(name, residual, tolerance, note=""):
    residual = float(residual)
    return Check(name, residual <= tolerance, residual, tolerance, note)


def _failed(name, tolerance, note):
    return Check(name, False, float("nan"), tolerance, note)


def _random_z(rng, fam, lo=1.15, hi=2.5):
    """A uniform evaluation point in the family's scalar type, so that an
    extended-precision run does not evaluate at binary64 points."""
    z = rng.uniform(lo, hi)
    if not is_mp(fam.q):
        return z
    import mpmath
    return mpmath.mpf(z)


class RunTables:
    """The parameter-only quantities of one family, each computed on first use.

    One instance serves one :func:`run_suite` call and is dropped with it, so
    its mpmath values are read only at the working precision that made them.
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
        reference."""
        return self.tri.at_alpha(0.5)

    @cached_property
    def grid(self):
        """The tables at the deformations in ISOSPECTRAL_ALPHAS."""
        return [self.tri.at_alpha(al) for al in ISOSPECTRAL_ALPHAS]


def sample_family(rng, N, alpha=None, q=None):
    """Draw a bi-lattice family from the positivity box.

    a, c in [0.2, 0.95] and q in [0.3, 0.8], redrawn until the direct u-scan
    passes.  Even N additionally needs a q < c < a, which the printed
    symmetric inequalities do not capture.
    """
    while True:
        a = rng.uniform(0.2, 0.95)
        c = rng.uniform(0.2, 0.95)
        qq = q if q is not None else rng.uniform(0.3, 0.8)
        al = alpha if alpha is not None else rng.choice([0.25, 0.5, 0.75])
        if abs(a - c) < 1e-3:
            continue
        if N % 2 == 0 and not a * qq < c < a:
            continue
        if not qq < a / c < 1 / qq:
            continue
        fam = para_racah.ParaRacahFamily(a=a, c=c, alpha=al, q=qq, N=N)
        if tridiagonal(fam).positive:
            return fam


# The benchmark tracer (perfbench/tracer.py) wraps both names.
gram_errors_qpk = gram_errors


# ---------------------------------------------------------------------------
# Suites over bi-lattice families
# ---------------------------------------------------------------------------


def _is_qpk(fam) -> bool:
    return isinstance(fam, para_krawtchouk.ParaKrawtchoukFamily)


def suite_orthogonality(run, rng):
    """Favard positivity, strand sums and Gram errors; for qpr also the
    Christoffel cross-check and the beta factor.  The Christoffel route
    serves qpk too, but R_N by forward recurrence at a small-q lattice loses
    digits, and some in-box qpk families would fail it, in double and at 50
    digits.  qpk has no alpha = 1/2 weights, so no beta factor."""
    fam, tri = run.fam, run.tri
    note = "" if _is_qpk(fam) else "min u_n = %.3e" % float(min(tri.u))
    checks = [_check("favard-positivity", 0.0 if tri.positive else 1.0, 0.5, note=note)]
    if not tri.positive:
        checks.append(_failed("gram-orthogonality", TOL_GRAM,
                              "skipped: family is outside the positivity region"))
        return checks
    lw = family_module(fam).weights(tri)
    se, so = lw.strand_sums()
    checks.append(_check("weight-sum-even", abs(se - (1 - fam.alpha)), TOL_WEIGHT_SUM))
    checks.append(_check("weight-sum-odd", abs(so - fam.alpha), TOL_WEIGHT_SUM))
    d, o = gram_errors(tri, lw)
    checks.append(_check("gram-diagonal", d, TOL_GRAM))
    checks.append(_check("gram-off-diagonal", o, TOL_GRAM))
    if _is_qpk(fam):
        return checks
    cw = para_racah.weights_from_christoffel(tri)
    worst = max_keep_nan(*(abs(x - y) / abs(x) for x, y in zip(lw.weights, cw.weights)))
    checks.append(_check("christoffel-cross-check", worst, TOL_CHRISTOFFEL))
    ratios = [w / wh for w, wh in zip(lw.weights, lw.weights_half)]
    beta_fit = (ratios[0] - ratios[1]) / (ratios[0] + ratios[1])
    checks.append(_check("beta-factor", abs(beta_fit - (1 - 2 * fam.alpha)), TOL_BETA))
    return checks


def suite_explicit(run, rng):
    fam, tri = run.fam, run.tri
    worst = fam.q * 0
    for n in range(fam.N + 1):
        zs = [_random_z(rng, fam) for _ in range(10)]
        for z, e in zip(zs, para_racah.eval_explicit(fam, n, zs)):
            r = para_racah.eval_recurrence(tri, n, z)
            worst = max_keep_nan(worst, abs(e - r) / max(abs(r), abs(e)))
    return [_check("explicit-vs-recurrence", worst, TOL_EXPLICIT)]


def suite_bispectral(run, rng):
    fam, tri = run.fam, run.tri
    zero = worst = fam.q * 0
    for n in range(fam.N + 1):
        zs = [_random_z(rng, fam, 2.0, 3.0) for _ in range(10)]
        for res, scale in para_racah.qdiff_residual(tri, n, zs):
            worst = max_keep_nan(worst, abs(res) / scale)
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
    if run.fam.alpha != 0.5:
        # Away from alpha = 1/2 the suite asserts a violation it can print.
        return [Check("persymmetry-violation", TOL_PERSYM_VIOLATION < coeff_res < math.inf,
                      coeff_res, TOL_PERSYM_VIOLATION,
                      note="expected residual above tolerance")]
    checks = [_check("coefficient-persymmetry", coeff_res, TOL_PERSYM)]
    if tri.positive:
        mat = spectral.build_jacobi(tri)
        checks.append(_check("matrix-persymmetry", spectral.persymmetry_residual(mat),
                             TOL_PERSYM))
    return checks


def suite_isospectral(run, rng):
    fam, tri = run.fam, run.tri
    if not tri.positive:
        return [_failed("isospectrality", TOL_ISOSPECTRAL,
                        "skipped: Jacobi matrix is not symmetrizable")]
    jacobi = spectral.build_jacobi(tri)
    ref = spectral.spectrum(spectral.build_jacobi(run.half))
    dev = spectral.isospectrality_check(ref, run.grid)
    eig = ref if tri is run.half else spectral.spectrum(jacobi)
    gap = spectral.spectrum_vs_lattice(eig, family_module(fam).lattice(fam).points)
    norm = spectral.matrix_norm(jacobi)
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
    a_exp = math.log(fam.a) / math.log(fam.q)
    limits = connections.dual_hahn_limit(a_exp, fam.N, range(1, fam.N))
    worst = 0.0
    for lim_a, lim_c, t_a, t_c in limits:
        worst = max_keep_nan(worst, abs(lim_a - t_a) / max(1.0, abs(t_a)),
                             abs(lim_c - t_c) / max(1.0, abs(t_c)))
    return [_check("dual-hahn-limit", worst, TOL_DUALHAHN,
                   note="a-exponent %.6g" % a_exp)]


def suite_qpk_limit(run, rng):
    """Closed-form exponential-lattice coefficients vs the scaled limit of
    the q-para-Racah tables at a c = theta = 10^3, 10^4, 10^5, a / c = Delta."""
    fam, N = run.fam, run.fam.N
    if _is_qpk(fam):
        # Read outside the block below, so it is filled at the run's precision.
        qpk, delta = run.tri, fam.Delta
    else:
        qpk, delta = None, fam.a / fam.c
    import mpmath
    worst = mpmath.mpf(0)  # every residual below is an mpf
    with mpmath.workdps(connections.LIMIT_DIGITS):
        if qpk is None:
            qpk = tridiagonal(para_krawtchouk.ParaKrawtchoukFamily(
                Delta=delta, alpha=fam.alpha, q=fam.q, N=N))
        D, qq, al = map(mpmath.mpf, (delta, fam.q, fam.alpha))
        b_rows, u_rows = [], []
        for k in (3, 4, 5):
            theta = mpmath.mpf(10) ** k
            a = mpmath.sqrt(theta * D)
            c = mpmath.sqrt(theta / D)
            big = tridiagonal(para_racah.ParaRacahFamily(a=a, c=c, alpha=al, q=qq, N=N))
            scale_b, scale_u = 2 * a / theta, 4 * a * a / theta ** 2
            b_rows.append([scale_b * v for v in big.b])
            u_rows.append([scale_u * v for v in big.u])
        for rows, closed in ((b_rows, qpk.b), (u_rows, qpk.u)):
            for steps, value in zip(zip(*rows), closed):
                ext = connections.richardson(steps, 10)[-1]
                worst = max_keep_nan(
                    worst, abs(ext - value) / max(mpmath.mpf(1) / 10 ** 6, abs(ext)))
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
