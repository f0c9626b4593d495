"""Named verification suites composing the library invariants.

Each suite returns a list of :class:`Check` records (name, pass/fail,
measured residual, tolerance).  The CLI renders them and derives its exit
code; the acceptance tests reuse the same machinery.  All random evaluation
points come from a caller-seeded generator, so a fixed configuration
reproduces byte-identical reports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import connections, para_krawtchouk, para_racah, spectral
from .recurrence import family_module, persymmetry_residual, tridiagonal

__all__ = ["Check", "SUITES", "run_suite", "suite_names_for", "sample_family"]

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
TOL_SIMPLE_RN = 1e-8
TOL_BETA = 1e-8
TOL_QRACAH = 1e-8
TOL_DUALHAHN = 1e-4
TOL_QPK_LIMIT = 1e-6
TOL_LATTICE_ROOT = 1e-9


@dataclass
class Check:
    name: str
    passed: bool
    residual: float
    tolerance: float
    note: str = ""


def _check(name, residual, tolerance, note=""):
    residual = float(residual)
    return Check(name, residual <= tolerance, residual, tolerance, note)


def _failed(name, tolerance, note):
    return Check(name, False, float("nan"), tolerance, note)


def max_keep_nan(a, b):
    """max(a, b), but NaN when either is NaN.

    The builtin keeps a NaN only in first place, so folding residuals with
    it would let a NaN residual read as a pass.
    """
    return a if a != a or b <= a else b


def _random_z(rng, lo=1.15, hi=2.5):
    return rng.uniform(lo, hi)


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
        if para_racah.positivity_check(fam).u_positive:
            return fam


def gram_errors(fam, lw):
    """(max diagonal relative error, max scaled off-diagonal entry).

    The Gram matrix sum_s w_s P_n(x_s) P_m(x_s) is compared with diag(h_n)
    at the lattice points ``lw.points``, for either family kind.  A NaN
    entry makes its error NaN.
    """
    tri = tridiagonal(fam)
    vals = [tri.values(x, fam.N) for x in lw.points]
    worst_diag = worst_off = 0.0
    for n in range(fam.N + 1):
        for m in range(n + 1):
            g = sum(w * vals[s][n] * vals[s][m] for s, w in enumerate(lw.weights))
            if n == m:
                worst_diag = max_keep_nan(worst_diag, abs(g - lw.h[n]) / abs(lw.h[n]))
            else:
                worst_off = max_keep_nan(
                    worst_off, abs(g) / math.sqrt(abs(lw.h[n] * lw.h[m])))
    return float(worst_diag), float(worst_off)


# The benchmark tracer (perfbench/tracer.py) wraps this name as well.
gram_errors_qpk = gram_errors


# ---------------------------------------------------------------------------
# Suites over bi-lattice families
# ---------------------------------------------------------------------------


def _is_qpk(fam) -> bool:
    return isinstance(fam, para_krawtchouk.ParaKrawtchoukFamily)


def suite_orthogonality(fam, rng):
    """Favard positivity, strand sums and Gram errors; for qpr also the
    Christoffel cross-check and the beta factor."""
    if _is_qpk(fam):
        positive, note = tridiagonal(fam).positive, ""
    else:
        rep = para_racah.positivity_check(fam)
        positive, note = rep.u_positive, "min u_n = %.3e" % rep.min_u
    checks = [_check("favard-positivity", 0.0 if positive else 1.0, 0.5, note=note)]
    if not positive:
        checks.append(_failed("gram-orthogonality", TOL_GRAM,
                              "skipped: family is outside the positivity region"))
        return checks
    lw = family_module(fam).weights(fam)
    se = sum(lw.weights[i] for i in range(0, fam.N + 1, 2))
    so = sum(lw.weights[i] for i in range(1, fam.N + 1, 2))
    checks.append(_check("weight-sum-even", abs(se - (1 - fam.alpha)), TOL_WEIGHT_SUM))
    checks.append(_check("weight-sum-odd", abs(so - fam.alpha), TOL_WEIGHT_SUM))
    d, o = gram_errors(fam, lw)
    checks.append(_check("gram-diagonal", d, TOL_GRAM))
    checks.append(_check("gram-off-diagonal", o, TOL_GRAM))
    if _is_qpk(fam):
        return checks
    cw = para_racah.weights_from_christoffel(fam)
    worst = max(abs(x - y) / abs(x) for x, y in zip(lw.weights, cw.weights))
    checks.append(_check("christoffel-cross-check", worst, TOL_CHRISTOFFEL))
    ratios = [w / wh for w, wh in zip(lw.weights, lw.weights_half)]
    beta_fit = (ratios[0] - ratios[1]) / (ratios[0] + ratios[1])
    checks.append(_check("beta-factor", abs(beta_fit - (1 - 2 * fam.alpha)), TOL_BETA))
    return checks


def suite_explicit(fam, rng):
    tri = tridiagonal(fam)
    worst = 0.0
    for n in range(fam.N + 1):
        for _ in range(10):
            z = _random_z(rng)
            r = para_racah.eval_recurrence(fam, n, z, tri)
            e = para_racah.eval_explicit(fam, n, z)
            worst = max(worst, abs(e - r) / max(abs(r), abs(e)))
    return [_check("explicit-vs-recurrence", worst, TOL_EXPLICIT)]


def suite_bispectral(fam, rng):
    tri = tridiagonal(fam)
    worst = 0.0
    for n in range(fam.N + 1):
        for _ in range(10):
            z = _random_z(rng, 2.0, 3.0)
            res, scale = para_racah.qdiff_residual(fam, n, z, tri)
            worst = max(worst, abs(res) / scale)
    lam = [para_racah.qdiff_eigenvalue(fam, n) for n in range(fam.N + 1)]
    degen = max((abs(lam[n] - lam[fam.N - n]) / abs(lam[n])
                 for n in range(1, fam.N)), default=0.0)
    return [
        _check("qdiff-residual", worst, TOL_BISPECTRAL),
        _check("eigenvalue-degeneracy", degen, TOL_EIGEN_DEGENERACY),
    ]


def suite_persymmetry(fam, rng):
    tri = tridiagonal(fam)
    coeff_res = persymmetry_residual(tri)
    checks = []
    if fam.alpha == 0.5:
        checks.append(_check("coefficient-persymmetry", coeff_res, TOL_PERSYM))
        if tri.positive and not _is_qpk(fam):
            mat = spectral.build_jacobi(tri)
            checks.append(_check("matrix-persymmetry",
                                 spectral.persymmetry_residual(mat), TOL_PERSYM))
    else:
        # Away from alpha = 1/2 the suite asserts the violation.
        checks.append(Check("persymmetry-violation", coeff_res > TOL_PERSYM_VIOLATION,
                            coeff_res, TOL_PERSYM_VIOLATION,
                            note="expected residual above tolerance"))
    return checks


def suite_isospectral(fam, rng):
    tri = tridiagonal(fam)
    if not tri.positive:
        return [_failed("isospectrality", TOL_ISOSPECTRAL,
                        "skipped: Jacobi matrix is not symmetrizable")]
    norm = spectral.matrix_norm(spectral.build_jacobi(tri))
    dev = spectral.isospectrality_check(fam, [0.1, 0.3, 0.5, 0.7, 0.9])
    gap = spectral.spectrum_vs_lattice(fam)
    return [
        _check("isospectrality", dev / norm, TOL_ISOSPECTRAL),
        _check("spectrum-vs-lattice", gap / norm, TOL_ISOSPECTRAL),
    ]


def suite_qracah(fam, rng):
    worst = 0.0
    for _ in range(10):
        z = _random_z(rng)
        worst = max(worst, connections.verify_qracah_identity(fam.a, fam.q, fam.N, z))
    return [_check("qracah-identity", worst, TOL_QRACAH,
                   note="at c = a sqrt(q), alpha = 1/2")]


def suite_dualhahn(fam, rng):
    a_exp = math.log(fam.a) / math.log(fam.q)
    worst = 0.0
    for n in range(1, fam.N):
        lim_a, lim_c, t_a, t_c = connections.dual_hahn_limit(a_exp, fam.N, n)
        worst = max(worst,
                    abs(lim_a - t_a) / max(1.0, abs(t_a)),
                    abs(lim_c - t_c) / max(1.0, abs(t_c)))
    return [_check("dual-hahn-limit", worst, TOL_DUALHAHN,
                   note="a-exponent %.6g" % a_exp)]


def suite_qpk_limit(fam, rng):
    """Closed-form exponential-lattice coefficients vs the scaled limit."""
    import mpmath

    if _is_qpk(fam):
        delta, alpha, q, N = fam.Delta, fam.alpha, fam.q, fam.N
    else:
        delta, alpha, q, N = fam.a / fam.c, fam.alpha, fam.q, fam.N
    qfam = para_krawtchouk.ParaKrawtchoukFamily(Delta=delta, alpha=alpha, q=q, N=N)
    worst = 0.0
    with mpmath.workdps(50):
        D = mpmath.mpf(delta)
        qq = mpmath.mpf(q)
        al = mpmath.mpf(alpha)
        for n in range(N + 1):
            vals_b, vals_u = [], []
            for k in (3, 4, 5):
                theta = mpmath.mpf(10) ** k
                a = mpmath.sqrt(theta * D)
                c = mpmath.sqrt(theta / D)
                big = para_racah.ParaRacahFamily(a=a, c=c, alpha=al, q=qq, N=N)
                vals_b.append((2 * a / theta) * para_racah.b_coefficient(big, n))
                if n >= 1:
                    vals_u.append((4 * a * a / theta ** 2)
                                  * para_racah.u_coefficient(big, n))
            b_ext = _richardson10(vals_b)
            worst = max(worst, abs(b_ext - para_krawtchouk.b_coefficient(qfam, n))
                        / max(mpmath.mpf(1) / 10 ** 6, abs(b_ext)))
            if n >= 1:
                u_ext = _richardson10(vals_u)
                worst = max(worst, abs(u_ext - para_krawtchouk.u_coefficient(qfam, n))
                            / max(mpmath.mpf(1) / 10 ** 6, abs(u_ext)))
    return [_check("qpk-theta-limit", worst, TOL_QPK_LIMIT)]


def _richardson10(vals):
    first = [(10 * hi - lo) / 9 for lo, hi in zip(vals, vals[1:])]
    return (100 * first[1] - first[0]) / 99


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


def suite_names_for(fam) -> tuple:
    return tuple(_QPK_SUITES if _is_qpk(fam) else _QPR_SUITES)


def run_suite(name: str, fam, seed: int = 0):
    """Run one named suite (or 'all') and return its Check list."""
    table = _QPK_SUITES if _is_qpk(fam) else _QPR_SUITES
    if name == "all":
        names = tuple(table)
    elif name in table:
        names = (name,)
    else:
        raise ValueError("unknown suite %r for this family kind" % name)
    checks = []
    for suite_name in names:
        rng = random.Random(seed)
        for chk in table[suite_name](fam, rng):
            chk.name = "%s/%s" % (suite_name, chk.name)
            checks.append(chk)
    return checks
