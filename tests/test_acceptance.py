"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria sweep seeded random families drawn from the moderate
parameter box (a, c in [0.2, 0.95], q in [0.3, 0.8], alpha in
{0.25, 0.5, 0.75}) restricted to the positivity region.
"""

import json
import math
import random
import time

from decimal import Decimal

import pytest

import support
from qortho import cli, connections, para_krawtchouk, para_racah, recurrence, spectral, verify
from qortho.scalars import extended_precision, max_keep_nan

BOX_ALPHAS = (0.25, 0.5, 0.75)


def _families(seed, n_range, per_n, alphas=BOX_ALPHAS, orientation=None):
    rng = random.Random(seed)
    out = []
    for N in n_range:
        for rep in range(per_n):
            alpha = alphas[rep % len(alphas)]
            while True:
                fam = support.sample_family(rng, N, alpha=alpha)
                if orientation == "a>c" and not fam.a > fam.c:
                    continue
                break
            out.append(fam)
    return out, rng


def _report(num, name):
    print("ACCEPTANCE %2d %-28s PASS" % (num, name))


def test_criterion_01_explicit_recurrence_equivalence():
    start = time.time()
    fams, rng = _families(101, range(2, 10), 5)
    worst = 0.0
    for fam in fams:
        tri = recurrence.tridiagonal(fam)
        # Twenty points per family, shared by every degree.
        zs = [rng.uniform(1.15, 2.5) for _ in range(20)]
        for n, row in enumerate(para_racah.eval_explicit(tri, zs)):
            for z, e in zip(zs, row):
                r = para_racah.eval_recurrence(tri, n, z)
                worst = max(worst, abs(e - r) / max(abs(r), abs(e)))
    elapsed = time.time() - start
    assert worst <= 1e-8, worst
    assert elapsed <= 30.0, elapsed
    _report(1, "explicit-vs-recurrence")


def test_criterion_02_orthogonality():
    fams, _ = _families(102, range(2, 10), 5)
    for fam in fams:
        tri = recurrence.tridiagonal(fam)
        lw = para_racah.weights(fam)
        # The twist certifies the points as zeros of R_{N+1}, which the glued
        # vectors themselves would hide.
        vectors, twist = recurrence.lattice_vectors(tri.b, tri.u, lw.points)
        d, o = verify.gram_errors(vectors, lw.weights, tri.h)
        assert twist <= 1e-8, (fam, twist)
        assert d <= 1e-8, (fam, d)
        assert o <= 1e-8, (fam, o)
        se = sum(lw.weights[i] for i in range(0, fam.N + 1, 2))
        so = sum(lw.weights[i] for i in range(1, fam.N + 1, 2))
        assert abs(se - (1 - fam.alpha)) <= 1e-9
        assert abs(so - fam.alpha) <= 1e-9
    _report(2, "gram-orthogonality")


def test_criterion_03_bispectrality():
    fams, rng = _families(103, range(2, 8), 2)
    for fam in fams:
        tri = recurrence.tridiagonal(fam)
        zs = [rng.uniform(2.0, 3.0) for _ in range(10)]
        for n, row in enumerate(para_racah.qdiff_residual(tri, zs)):
            for res, scale in row:
                assert abs(res) <= 1e-9 * scale, (fam, n)
        for n in range(1, fam.N):
            lam = para_racah.qdiff_eigenvalue(fam, n)
            mirror = para_racah.qdiff_eigenvalue(fam, fam.N - n)
            assert abs(lam - mirror) <= 1e-14 * abs(lam)
    _report(3, "bispectrality")


def test_criterion_04_persymmetry_isospectrality():
    # Every lattice point is certified as an eigenvalue of every deformed
    # Jacobi matrix: its residual radius, and so the distance between the
    # deformed eigenvalue and the alpha = 1/2 one, is within tolerance.
    fams, _ = _families(104, range(2, 10), 3)
    for fam in fams:
        half = fam.replace(alpha=0.5)
        half_tri = recurrence.tridiagonal(half)
        assert spectral.persymmetry_residual(half_tri) <= 1e-12
        norm = spectral.matrix_norm(half_tri)
        points = para_racah.lattice(fam)
        ref = spectral.spectrum(half_tri, points)
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            tri = recurrence.tridiagonal(fam.replace(alpha=alpha))
            radii = spectral.spectrum(tri, points)
            assert all(r <= 1e-9 * norm for r in radii), (fam, alpha, radii)
            dev = max_keep_nan(*(r + h for r, h in zip(radii, ref)))
            assert dev <= 1e-9 * norm, (fam, alpha, dev)
    _report(4, "persymmetry-isospectrality")


def test_criterion_05_beta_factor():
    fams, _ = _families(105, range(2, 10), 2, alphas=(0.25, 0.75))
    for fam in fams:
        lw = para_racah.weights(fam)
        ratios = [w / wh for w, wh in zip(lw.weights, lw.weights_half)]
        beta = (ratios[0] - ratios[1]) / (ratios[0] + ratios[1])
        assert abs(beta - (1 - 2 * fam.alpha)) <= 1e-8, fam
    _report(5, "beta-factor")


def test_criterion_06_christoffel_cross_check():
    # The signed square-root evaluation is asserted in its printed
    # orientation, which is the a > c interlacing.
    fams, _ = _families(106, range(2, 8), 3, orientation="a>c")
    for fam in fams:
        half = fam.replace(alpha=0.5)
        half_tri = recurrence.tridiagonal(half)
        tri = recurrence.tridiagonal(fam)
        lw = para_racah.weights(fam)
        vectors, twist = recurrence.lattice_vectors(tri.b, tri.u, lw.points)
        cw = para_racah.weights_from_christoffel(tri, vectors)
        assert twist <= 1e-7, (fam, twist)
        for w_closed, w_chr in zip(lw.weights, cw):
            assert abs(w_closed - w_chr) <= 1e-7 * abs(w_closed), fam
        root = math.sqrt(half_tri.h[-1])
        for s, z in enumerate(support.lattice_z(half)):
            val = para_racah.eval_recurrence(half_tri, half.N, z)
            target = (-1) ** (half.N + s) * root
            assert abs(val - target) <= 1e-8 * abs(target), (fam, s)
    _report(6, "christoffel-cross-check")


def test_criterion_07_qracah_identity():
    rng = random.Random(107)
    for N in range(2, 9):
        for a in (0.5, 0.7, 0.9):
            for _ in range(10):
                z = rng.uniform(1.1, 2.4)
                residual = connections.verify_qracah_identity(a, 0.49, N, [z])
                assert residual <= 1e-8, (N, a, residual)
    _report(7, "qracah-identity")


def test_criterion_08_dual_hahn_limit():
    start = time.time()
    for a_exp in (0.4, 0.6):
        limits = connections.dual_hahn_limit(a_exp, 4, (1, 2, 3))
        for n, (lim_a, lim_c, t_a, t_c) in zip((1, 2, 3), limits):
            assert abs(lim_a - t_a) <= 1e-4 * abs(t_a), (a_exp, n)
            assert abs(lim_c - t_c) <= 1e-4 * abs(t_c), (a_exp, n)
    assert time.time() - start <= 60.0
    _report(8, "dual-hahn-limit")


def test_criterion_09_para_krawtchouk():
    # closed forms vs the rescaled limit of the biexponential family
    with extended_precision(50):
        for N in (4, 5):
            D = Decimal("1.3")
            q = Decimal("0.5")
            al = Decimal("0.35")
            fam = para_krawtchouk.ParaKrawtchoukFamily(Delta=D, alpha=al, q=q, N=N)
            for n in range(N + 1):
                vals_b, vals_u = [], []
                for k in (3, 4, 5):
                    theta = Decimal(10) ** k
                    a = (theta * D).sqrt()
                    c = (theta / D).sqrt()
                    big = para_racah.ParaRacahFamily(a=a, c=c, alpha=al, q=q, N=N)
                    vals_b.append((2 * a / theta) * para_racah.b_coefficient(big, n))
                    if n >= 1:
                        vals_u.append((4 * a * a / theta ** 2)
                                      * para_racah.u_coefficient(big, n))
                r = [(10 * hi - lo) / 9 for lo, hi in zip(vals_b, vals_b[1:])]
                ext = (100 * r[1] - r[0]) / 99
                closed = para_krawtchouk.b_coefficient(fam, n)
                assert abs(ext - closed) <= Decimal("1e-6") * max(1, abs(ext)), (N, n)
                if n >= 1:
                    r = [(10 * hi - lo) / 9 for lo, hi in zip(vals_u, vals_u[1:])]
                    ext = (100 * r[1] - r[0]) / 99
                    closed = para_krawtchouk.u_coefficient(fam, n)
                    assert abs(ext - closed) <= Decimal("1e-6") * max(1, abs(ext)), (N, n)
    # Gram orthogonality and persymmetry on the exponential bi-lattice
    for N in range(2, 10):
        for alpha in BOX_ALPHAS:
            fam = para_krawtchouk.ParaKrawtchoukFamily(
                Delta=1.3, alpha=alpha, q=0.5, N=N)
            tri = recurrence.tridiagonal(fam)
            lw = para_krawtchouk.weights(fam)
            vals = [[para_krawtchouk.eval_recurrence(tri, n, y) for y in lw.points]
                    for n in range(N + 1)]
            for n in range(N + 1):
                for m in range(n + 1):
                    g = sum(w * vals[n][s] * vals[m][s]
                            for s, w in enumerate(lw.weights))
                    if n == m:
                        assert abs(g - tri.h[n]) <= 1e-8 * abs(tri.h[n]), (N, alpha)
                    else:
                        assert abs(g) <= 1e-8 * math.sqrt(tri.h[n] * tri.h[m])
        half = para_krawtchouk.ParaKrawtchoukFamily(Delta=1.3, alpha=0.5, q=0.5, N=N)
        assert recurrence.persymmetry_residual(recurrence.tridiagonal(half)) <= 1e-12
    _report(9, "para-krawtchouk")


def test_criterion_10_oracle_consistency():
    # Tiny-t substitution into the raw parent coefficients reproduces the
    # closed-form tables to 40 significant digits.
    with extended_precision(support.ORACLE_DPS):
        tol = Decimal("1e-40")
        for N in range(1, 8):
            for (a, c, alpha) in (("0.9", "0.7", "0.3"), ("0.55", "0.4", "0.65")):
                fam = support.family("qpr", N, Decimal, a=a, c=c, alpha=alpha, q="0.5")
                for n in range(N + 1):
                    b_or, u_or = support.oracle_recurrence_coefficients(fam, n)
                    b_cf = para_racah.b_coefficient(fam, n)
                    assert abs(b_cf - b_or) <= abs(b_or) * tol, (N, n)
                    if n >= 1:
                        u_cf = para_racah.u_coefficient(fam, n)
                        assert abs(u_cf - u_or) <= abs(u_or) * tol, (N, n)
    _report(10, "oracle-consistency")


def test_criterion_11_cli_determinism(capsys):
    base = ["--kind", "qpr", "--a", "0.9", "--c", "0.7",
            "--alpha", "0.5", "--q", "0.5", "--N", "5"]

    def run(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out

    for argv in (
        ["coeffs"] + base + ["--format", "csv"],
        ["coeffs"] + base + ["--format", "json"],
        ["lattice-weights"] + base + ["--format", "json"],
        ["verify"] + base + ["--format", "json", "--seed", "3"],
    ):
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert code1 == code2 == 0
        assert out1 == out2
        if "json" in argv:
            assert json.loads(out1)["schema_version"] == 1

    # exit-code matrix
    code, _ = run(["coeffs", "--kind", "qpr", "--a", "0.9", "--c", "0.7",
                   "--alpha", "1.5", "--q", "0.5", "--N", "5"])
    assert code == 2
    code, _ = run(["lattice-weights", "--kind", "qpr", "--a", "0.9", "--c", "0.9",
                   "--alpha", "0.5", "--q", "0.5", "--N", "5"])
    assert code == 3
    code, _ = run(["verify", "--kind", "qpr", "--a", "0.9", "--c", "0.2",
                   "--alpha", "0.5", "--q", "0.5", "--N", "4",
                   "--suite", "orthogonality"])
    assert code == 4
    code, _ = run(["verify"] + base)
    assert code == 0
    _report(11, "cli-determinism")
