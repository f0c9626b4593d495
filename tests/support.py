"""Shared oracles and helpers for the test suite.

The truncation-substitution oracle evaluates the raw parent-family
recurrence coefficients at an explicit tiny limit parameter t under mpmath,
instead of using the resolved closed forms; it is the independent route the
coefficient tables are checked against, and it converts a family's Decimal
or float parameters at its boundary.  :func:`family` builds the qortho
families of the tests, in binary64 or in Decimal.  The per-point and limit
references at the end are the exact-equality references of the library
routes.
"""

import contextlib
import decimal
import math
import sys
from decimal import Decimal

import mpmath

from oracles import askey_wilson
from oracles import qseries as oracle_qseries
from qortho import connections, para_krawtchouk, para_racah, qseries, verify
from qortho.recurrence import DegenerateFamilyError, interleave, tridiagonal
from qortho.scalars import (extended_precision, is_extended, is_finite, max_keep_nan,
                            to_extended, working_precision)

KINDS = {"qpr": para_racah.ParaRacahFamily, "qpk": para_krawtchouk.ParaKrawtchoukFamily}


def family(kind, N, num=float, **params):
    """A qortho family of ``kind`` ("qpr" or "qpk", or the class itself)
    whose parameters but N are ``num`` of the given strings or numbers:
    float, or Decimal for an extended-precision family, which takes a
    string's digits and a float's value exactly."""
    cls = KINDS.get(kind, kind)
    return cls(N=N, **{name: num(v) for name, v in params.items()})

# Tiny but nonzero limit parameter; the weights e1, e2 are scaled down so the
# first-order limit error e*t*log(q) sits far below the 40-digit comparison.
ORACLE_T = mpmath.mpf("1e-30")
ORACLE_E_SCALE = mpmath.mpf("1e-12")
ORACLE_DPS = 120


def truncated_parent_params(fam):
    """Raw parent parameters b = a^-1 q^(-j + e1 t), d = c^-1 q^(-j(-1) + e2 t).

    Must be called inside an mpmath working-precision context; the family's
    a, c, alpha, q, floats or Decimals, are converted to the current
    precision.
    """
    a, c, q, alpha = map(mpmath.mpmathify, (fam.a, fam.c, fam.q, fam.alpha))
    j = fam.j
    e1 = alpha * ORACLE_E_SCALE
    e2 = (1 - alpha) * ORACLE_E_SCALE
    b = q ** (-j + e1 * ORACLE_T) / a
    d_exp = -j if fam.odd else -j + 1
    d = q ** (d_exp + e2 * ORACLE_T) / c
    return askey_wilson.AskeyWilsonParams(a=a, b=b, c=c, d=d, q=q)


def oracle_recurrence_coefficients(fam, n):
    """(b_n, u_n) from the substitution oracle, run by mpmath at ORACLE_DPS
    digits and returned as Decimals of those digits; u_0 is returned as 0."""
    with mpmath.workdps(ORACLE_DPS):
        p = truncated_parent_params(fam)
        A_n, C_n = askey_wilson.recurrence_ac(p, n, singular_tol=0.0)
        b = (p.a + 1 / p.a - A_n - C_n) / 2
        u = mpmath.mpf(0)
        if n:
            A_prev, _ = askey_wilson.recurrence_ac(p, n - 1, singular_tol=0.0)
            u = A_prev * C_n / 4
        return tuple(Decimal(mpmath.nstr(v, ORACLE_DPS)) for v in (b, u))


def sample_family(rng, N, alpha=None, q=None):
    """Draw a q-para-Racah family from the positivity box.

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


def _qortho_source(frame):
    """"module.function" of the innermost qortho frame from ``frame`` out,
    or None when no qortho code is on the stack."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("qortho."):
            return "%s.%s" % (module[len("qortho."):], frame.f_code.co_name)
        frame = frame.f_back
    return None


@contextlib.contextmanager
def float_conversions():
    """Collect every float converted to a Decimal inside the block, as
    (value, source) pairs, the source given by :func:`_qortho_source`.  The
    package converts a float through ``to_extended`` alone, which is wrapped
    for the block in each module that binds it; every Decimal context made in
    the block traps ``FloatOperation``, so a float that meets a Decimal
    anywhere else, in a constructor or an ordering, raises."""
    found = []
    modules = (para_racah, connections, verify)
    originals = [module.to_extended for module in modules]
    context = decimal.Context

    def counted(x):
        if isinstance(x, float):
            found.append((x, _qortho_source(sys._getframe(1))))
            return Decimal.from_float(x)
        return to_extended(x)

    class Trapping(context):
        def __init__(self, *args, traps=None, **kwargs):
            traps = list(traps if traps is not None else
                         (s for s, on in decimal.DefaultContext.traps.items() if on))
            super().__init__(*args, traps=traps + [decimal.FloatOperation], **kwargs)

    decimal.Context = Trapping
    for module in modules:
        module.to_extended = counted
    try:
        yield found
    finally:
        decimal.Context = context
        for module, original in zip(modules, originals):
            module.to_extended = original


def lattice_z(fam):
    """The z representatives of a q-para-Racah family's lattice points in
    interleave order: a q^s on the a-strand, c q^s on the c-strand.  Each
    point of ``para_racah.lattice`` is (1/z + z)/2 of its z here, bit for
    bit."""
    pw = fam.powers()
    return interleave([fam.a * pw[s] for s in range(fam.j + 1)],
                      [fam.c * pw[s] for s in range(fam.N - fam.j)])


def eval_recurrence_with_peak(b_coefficient, u_coefficient, fam, n, x):
    """Monic P_n(x) together with the largest intermediate magnitude.

    A reference loop, independent of the library's recurrence engine, over
    the coefficient functions b_coefficient(fam, m) and u_coefficient(fam, m)
    (u_0 is taken as 0).  It runs in the type of x: from 1.0, or a Decimal
    1.  The peak is the natural roundoff scale for near-zero values such as
    the characteristic polynomial at its own roots.
    """
    cur = Decimal(1) if isinstance(x, Decimal) else 1.0
    prev, peak = 0 * cur, cur
    for m in range(n):
        b = b_coefficient(fam, m)
        u = 0 * cur if m == 0 else u_coefficient(fam, m)
        cur, prev = (x - b) * cur - u * prev, cur
        peak = max(peak, abs(cur))
    return cur, peak


# ---------------------------------------------------------------------------
# Per-point references for the per-degree routes of para_racah
# ---------------------------------------------------------------------------
#
# The q-para-Racah explicit expansion, q-difference residual and closed-form
# weights with every factor recomputed at every point: the explicit value as
# the coefficient row of its degree times the Askey-Wilson basis at the
# point, each written out term by term.  The library routes must return
# these values exactly.


def explicit_value_reference(fam, n, z, eta):
    """Explicit value of degree n at z with its cancellation scale:
    sum_k C_k phi_k and sum_k |C_k phi_k|, phi_k = (az, a/z; q)_k, C_k = eta
    t_k for the head series' terms t_k and, for n > j, C_(j+1+m) = (eta P) s_m
    for the second term's z-free prefactor P and tail series' terms s_m."""
    a, c, al, q, j = fam.a, fam.c, fam.alpha, fam.q, fam.j
    N = fam.N
    qp = qseries.qpochhammer
    tail = []
    if fam.odd and n in (j, j + 1):
        head = oracle_qseries.series_terms((q ** (-j - 1),), (q, a * c, (a / c) * q ** -j),
                                           q, q, j)
        if n == j + 1:
            pref = qp(q ** (-j - 1), q, j + 1) * q ** (j + 1) / (
                al * qp(q, q, j + 1) * qp(a * c, q, j + 1) * qp((a / c) * q ** -j, q, j + 1))
            tail = [q ** 0]
    else:
        r = (a / c) * q ** (j + 1 - N)
        head = oracle_qseries.series_terms((q ** -n, q ** (n - N)), (q ** -j, a * c, r, q),
                                           q, q, n if n <= j else N - n)
        if n > j:
            pref = ((qp(q ** (n - N), q, N - n) * qp(q ** -n, q, j + 1)
                     * qp(q, q, n + j - N) * q ** (j + 1))
                    / (al * qp(q ** -j, q, j) * qp(q, q, j + 1)
                       * qp(a * c, q, j + 1) * qp(r, q, j + 1)))
            tail = oracle_qseries.series_terms(
                (q ** (j + 1 - n), q ** (n + j + 1 - N)),
                (q ** (j + 2), a * c * q ** (j + 1), (a / c) * q * q ** (2 * j + 1 - N), q),
                q, q, n - j - 1)
    coefficients = [eta * t for t in head] + [eta * pref * s for s in tail]
    ks = list(range(len(head))) + [j + 1 + m for m in range(len(tail))]
    basis = [q ** 0]
    qpow = q ** 0
    while len(basis) <= ks[-1]:
        basis.append(basis[-1] * (1 - a * z * qpow) * (1 - a / z * qpow))
        qpow = qpow * q
    terms = [coef * basis[k] for coef, k in zip(coefficients, ks)]
    total, magnitude = terms[0], abs(terms[0])
    for term in terms[1:]:
        total = total + term
        magnitude = magnitude + abs(term)
    return total, magnitude


def eval_explicit_reference(tri, zs):
    """para_racah.eval_explicit, one value at a time: each value summed at
    its point alone, with r = R_n(x) from one recurrence pass per point, and
    each value whose term magnitude times the unit roundoff u (2^-53, or
    10^(1-P)/2 at P working digits) exceeds the accuracy constant times |r|
    summed again in Decimal, a complex point's as an ExtendedComplex, at the
    digits the call's worst one lost plus 16 (binary64) or P, then rounded
    back to its working type."""
    fam = tri.family
    digits = working_precision(fam.q)
    if digits is None:
        trigger = para_racah._EXPLICIT_ACCURACY * 2 ** 53
    else:
        num, den = para_racah._EXPLICIT_ACCURACY.as_integer_ratio()
        trigger = Decimal(num) / den * (2 * 10 ** (digits - 1))
    rows, flagged = [], []
    for n in range(fam.N + 1):
        eta = para_racah._eta(fam, n)
        row = []
        for i, z in enumerate(zs):
            value, magnitude = explicit_value_reference(fam, n, z, eta)
            r = abs(tri.values((z + 1 / z) / 2, fam.N)[n])
            if not (is_finite(magnitude) and is_finite(r)):
                raise OverflowError("degree %d" % n)
            if r != 0 and magnitude > trigger * r:
                flagged.append((n, i, magnitude / r))
            row.append(value)
        rows.append(row)
    if not flagged:
        return rows
    worst = max(ratio for _, _, ratio in flagged)
    lost = math.ceil(worst.log10() if is_extended(worst) else math.log10(worst))
    with extended_precision(lost + (digits or 16)):
        hi_fam = fam.replace(a=Decimal(fam.a), c=Decimal(fam.c),
                             alpha=Decimal(fam.alpha), q=Decimal(fam.q))
        values = [explicit_value_reference(hi_fam, n, to_extended(zs[i]),
                                           para_racah._eta(hi_fam, n))[0]
                  for n, i, _ in flagged]
    for (n, i, _), value in zip(flagged, values):
        rows[n][i] = +value if digits else type(rows[n][i])(value)
    return rows


def _shift_coefficient_reference(fam, z):
    a, c, q, j = fam.a, fam.c, fam.q, fam.j
    z2 = z * z
    den = (1 - z2) * (1 - q * z2)
    if abs(den) < 1e-12:
        raise ValueError("evaluation point too close to a shift-operator pole")
    return ((1 - a * z) * (1 - q ** -j * z / a)
            * (1 - c * z) * (1 - q ** (j + 1 - fam.N) * z / c)) / den


def qdiff_residual_reference(tri, n, z):
    """(LHS - RHS, operator scale) of the q-difference equation at one z."""
    fam = tri.family
    q = fam.q
    coef_up = _shift_coefficient_reference(fam, z)
    coef_dn = _shift_coefficient_reference(fam, 1 / z)
    r_up = para_racah.eval_recurrence(tri, n, q * z)
    r_mid = para_racah.eval_recurrence(tri, n, z)
    r_dn = para_racah.eval_recurrence(tri, n, z / q)
    lhs = para_racah.qdiff_eigenvalue(fam, n) * r_mid
    t_up = coef_up * r_up
    t_mid = (coef_up + coef_dn) * r_mid
    t_dn = coef_dn * r_dn
    residual = lhs - (t_up - t_mid + t_dn)
    scale = max(abs(lhs), abs(t_up), abs(t_mid), abs(t_dn))
    return residual, scale


def weight_reference(fam, index, k_norm):
    """Closed-form weight at an interleaved lattice index."""
    a, c, al, q, j = fam.a, fam.c, fam.alpha, fam.q, fam.j
    qp = qseries.qpochhammer
    s, on_c_strand = divmod(index, 2)
    if fam.odd:
        if not on_c_strand:
            num = (-2 * (1 - al) * k_norm * 2 ** (2 * j + 1) * a ** j * c ** (j + 1)
                   * q ** ((2 * j + 1) * s + (j + 1) * j)
                   * (1 - a * a * q ** (2 * s))
                   * qp(a * a, q, s) * qp(q ** -j, q, s)
                   * qp(a * c, q, s) * qp((a / c) * q ** -j, q, s))
            den = (qp(q, q, j) * qp(a * a * q, q, j)
                   * qp(c / a, q, j + 1) * qp(a * c, q, j + 1) * (1 - a * a)
                   * qp(q, q, s) * qp((a / c) * q, q, s)
                   * qp(a * a * q ** (j + 1), q, s) * qp(a * c * q ** (j + 1), q, s))
            return num / den
        num = (2 * al * k_norm * 2 ** (2 * j + 1) * c ** j * a ** (j + 1)
               * q ** ((2 * j + 1) * s + (j + 1) * j)
               * (1 - c * c * q ** (2 * s))
               * qp(c * c, q, s) * qp(q ** -j, q, s)
               * qp(a * c, q, s) * qp((c / a) * q ** -j, q, s))
        den = (qp(q, q, j) * qp(c * c * q, q, j)
               * qp(a / c, q, j + 1) * qp(a * c, q, j + 1) * (1 - c * c)
               * qp(q, q, s) * qp((c / a) * q, q, s)
               * qp(c * c * q ** (j + 1), q, s) * qp(a * c * q ** (j + 1), q, s))
        return num / den
    if not on_c_strand:
        num = ((1 - al) * k_norm * a ** j * c ** j * q ** (2 * j * s)
               * (1 - a * a * q ** (2 * s))
               * qp(a * a, q, s) * qp(q ** -j, q, s)
               * qp(a * c, q, s) * qp((a / c) * q ** (-j + 1), q, s))
        den = (qp(q, q, j) * qp(a * a * q, q, j)
               * qp(c / a, q, j) * qp(a * c, q, j) * (1 - a * a)
               * qp(q, q, s) * qp((a / c) * q, q, s)
               * qp(a * a * q ** (j + 1), q, s) * qp(a * c * q ** j, q, s))
        return num / den
    num = (-al * k_norm * a ** (j + 1) * c ** (j - 1) * q ** (2 * j * s)
           * (1 - c * c * q ** (2 * s))
           * qp(c * c, q, s) * qp(q ** (-j + 1), q, s)
           * qp(a * c, q, s) * qp((c / a) * q ** -j, q, s))
    den = (qp(q, q, j - 1) * qp(c * c * q, q, j - 1)
           * qp(a / c, q, j + 1) * qp(a * c, q, j + 1) * (1 - c * c)
           * qp(q, q, s) * qp((c / a) * q, q, s)
           * qp(c * c * q ** j, q, s) * qp(a * c * q ** (j + 1), q, s))
    return num / den


# ---------------------------------------------------------------------------
# References for the two limit oracles
# ---------------------------------------------------------------------------
#
# The dual-Hahn limit and the theta limit as they were computed before their
# step families were built once per call: one set of step families per
# degree, each oracle with its own Richardson loop.  The library routes must
# return these values exactly.


def count_family_builds(monkeypatch, module):
    """The list of ParaRacahFamily objects built, from now on, through
    ``module``'s name for the class."""
    built = []
    original = para_racah.ParaRacahFamily

    def counted(**params):
        built.append(original(**params))
        return built[-1]

    monkeypatch.setattr(module, "ParaRacahFamily", counted)
    return built


def count_passes(monkeypatch) -> list:
    """The list of coefficient passes made from now on, each (kind, family,
    b degrees, u degrees) with kind "qpr" or "qpk", and of the truncation
    limit passes, each ("limit", family, degrees): those a qpr table reads
    and those of the dual-Hahn limit."""
    from qortho import connections
    passes = []
    for kind, module in (("qpr", para_racah), ("qpk", para_krawtchouk)):
        original = module.coefficient_rows

        def counted(fam, b_degrees, u_degrees, _kind=kind, _original=original):
            b_degrees, u_degrees = tuple(b_degrees), tuple(u_degrees)
            passes.append((_kind, fam, b_degrees, u_degrees))
            return _original(fam, b_degrees, u_degrees)

        monkeypatch.setattr(module, "coefficient_rows", counted)
    original_limit = para_racah.limit_rows

    def counted_limit(fam, degrees):
        degrees = tuple(degrees)
        passes.append(("limit", fam, degrees))
        return original_limit(fam, degrees)

    for module in (para_racah, connections):
        monkeypatch.setattr(module, "limit_rows", counted_limit)
    return passes


def _richardson_halving_reference(values):
    """The fully accelerated estimate of a halving Richardson table, or
    ArithmeticError when its last two estimates differ by more than 1e-4
    relative to max(|estimate|, 1)."""
    table = list(values)
    level = 0
    last = table[-1]
    deltas = []
    while len(table) > 1:
        level += 1
        f = Decimal(2) ** level
        table = [(f * hi - lo) / (f - 1) for lo, hi in zip(table, table[1:])]
        deltas.append(abs(table[-1] - last))
        last = table[-1]
    if deltas and deltas[-1] > max(abs(last), Decimal(1)) * Decimal("1e-4"):
        raise ArithmeticError("extrapolation estimates are not contracting")
    return last


def dual_hahn_limit_reference(a_exponent, N, n):
    """(lim_a, lim_c, target_a, target_c) of one degree at 50 digits, from
    six steps sqrt(q) = 1 - 2^-k, the first the smallest k >= 8 with
    2^k > 32 |a_exponent|; ArithmeticError when the finest step keeps fewer
    than 53 bits of 1 - sqrt(q) above 10^-51, twenty half units of the
    52 digits at which sqrt(q) is rounded."""
    with extended_precision(50):
        exponent = Decimal(a_exponent)
        first = 8
        while 2 ** first <= 32 * abs(exponent):
            first += 1
        if Decimal(2) ** -(first + 5) < Decimal(2) ** 53 * Decimal("1e-51"):
            raise ArithmeticError("step families are not resolved at 50 digits")
        vals_a, vals_c = [], []
        for k in range(first, first + 6):
            p = 1 - Decimal(1) / 2 ** k
            q = p * p
            a = q ** exponent
            fam = para_racah.ParaRacahFamily(a=a, c=a * p, alpha=Decimal("0.5"), q=q, N=N)
            A, C = para_racah.limit_rows(fam, (n,))[0]
            s = (1 - p) ** 2
            vals_a.append(A / s)
            vals_c.append(C / s)
        lim_a = _richardson_halving_reference(vals_a)
        lim_c = _richardson_halving_reference(vals_c)
    g = (4 * a_exponent - 1) / 2
    target_a = (n + g + 1) * (n - N)
    target_c = n * (n - g - N - 1)
    return float(lim_a), float(lim_c), float(target_a), float(target_c)


def _richardson10_reference(vals):
    first = [(10 * hi - lo) / 9 for lo, hi in zip(vals, vals[1:])]
    return (100 * first[1] - first[0]) / 99


def qpk_theta_limit_reference(fam):
    """The qpk-theta-limit residual of a family of either kind, with the
    q-para-Krawtchouk coefficients refilled at 50 digits: a qpk family's
    own, a qpr family's from its 50-digit Delta = a / c, alpha and q."""
    if isinstance(fam, para_krawtchouk.ParaKrawtchoukFamily):
        delta, qfam = fam.Delta, fam
    else:
        delta, qfam = fam.a / fam.c, None
    alpha, q, N = fam.alpha, fam.q, fam.N
    worst = 0.0
    with extended_precision(50):
        D, qq, al = Decimal(delta), Decimal(q), Decimal(alpha)
        if qfam is None:  # a qpr run's target has the limit's own parameters
            qfam = para_krawtchouk.ParaKrawtchoukFamily(Delta=D, alpha=al, q=qq, N=N)
        floor = Decimal(1) / 10 ** 6
        for n in range(N + 1):
            vals_b, vals_u = [], []
            for k in (3, 4, 5):
                theta = Decimal(10) ** k
                a = (theta * D).sqrt()
                c = (theta / D).sqrt()
                big = para_racah.ParaRacahFamily(a=a, c=c, alpha=al, q=qq, N=N)
                vals_b.append((2 * a / theta) * para_racah.b_coefficient(big, n))
                if n >= 1:
                    vals_u.append((4 * a * a / theta ** 2)
                                  * para_racah.u_coefficient(big, n))
            b_ext = _richardson10_reference(vals_b)
            closed = Decimal(para_krawtchouk.b_coefficient(qfam, n))
            worst = max_keep_nan(worst, abs(b_ext - closed) / max(floor, abs(b_ext)))
            if n >= 1:
                u_ext = _richardson10_reference(vals_u)
                closed = Decimal(para_krawtchouk.u_coefficient(qfam, n))
                worst = max_keep_nan(worst, abs(u_ext - closed) / max(floor, abs(u_ext)))
    return float(worst)


# ---------------------------------------------------------------------------
# Per-point reference for the q-para-Krawtchouk weights
# ---------------------------------------------------------------------------
#
# The closed-form weights as they were computed before both kinds shared
# recurrence.weight_table: one whole product per point, every factor fetched
# at that point.  para_krawtchouk.weights must return these values exactly
# and raise what this raises.


def _qpk_weight_at_reference(fam, s, on_unit_strand, k_norm):
    D, al, q, j = fam.Delta, fam.alpha, fam.q, fam.j
    pw = fam.powers()
    qp = pw.pochhammer
    if fam.odd:
        if not on_unit_strand:
            num = (k_norm * (1 - al) * (1 - 1 / D) * pw[s]
                   * qp(D * pw[-j], j) * qp(pw[-j] / D, j)
                   * qp(pw[-j], s) * qp(D * pw[-j], s))
            den = qp(q, s) * qp(1 / D, j + 1) * D ** j * qp(D * q, s)
            return num / den
        num = (k_norm * al * (1 - D) * D ** j * pw[s]
               * qp(pw[-j] / D, j) * qp(D * pw[-j], j)
               * qp(pw[-j], s) * qp(pw[-j] / D, s))
        den = qp(q, s) * qp(D, j + 1) * qp(q / D, s)
        return num / den
    if not on_unit_strand:
        num = k_norm * (1 - al) * pw[s] * qp(pw[-j], s) * qp(D * pw[1 - j], s)
        den = D ** j * qp(q, s) * qp(q / D, j) * qp(D * q, s)
        return num / den
    num = (k_norm * al * D ** (j - 1) * (1 - pw[j]) * pw[s]
           * qp(pw[1 - j], s) * qp(pw[-j] / D, s))
    den = (1 - pw[j] / D) * qp(q, s) * qp(D * q, j) * qp(q / D, s)
    return num / den


def qpk_weights_reference(tri):
    """(points, weights) of para_krawtchouk.weights, point by point."""
    fam = tri.family
    if fam.degenerate:
        raise DegenerateFamilyError(
            "Delta = 1 collapses the two strands; weights are undefined"
        )
    # Delta = q^k, k != 0: the point Delta q^s is the point q^(s + k).
    D, q, j = float(fam.Delta), float(fam.q), fam.j
    for k in range(-j, fam.N - j):
        if k and abs(D - q ** k) <= 1e-12 * max(D, q ** k):
            s = max(0, -k)
            raise DegenerateFamilyError("Delta q^%d = q^%d puts one lattice point on both "
                                        "strands; weights are undefined" % (s, s + k))
    points = para_krawtchouk.lattice(fam)
    k_norm = para_krawtchouk._k_norm(fam)
    w = interleave([_qpk_weight_at_reference(fam, s, False, k_norm)
                    for s in range(fam.j + 1)],
                   [_qpk_weight_at_reference(fam, s, True, k_norm)
                    for s in range(fam.N - fam.j)])
    return points, w
