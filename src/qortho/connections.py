"""Reductions on a single lattice: the monic q-Racah identity at c = a sqrt(q)
with alpha = 1/2, and the dual-Hahn limit of the recurrence coefficients as
q -> 1.

The monic q-Racah recurrence is transcribed from the standard reference
tables; its transcription is validated through the identity itself against
the independently built bi-lattice side.
"""

from __future__ import annotations

from .para_racah import ParaRacahFamily, limit_rows
from .recurrence import monic_coefficients, monic_values, tridiagonal
from .scalars import extended_precision, max_keep_nan, sqrt, to_extended, typed_float, unit

__all__ = [
    "QRacahParams",
    "ExtrapolationError",
    "qracah_recurrence_ac",
    "single_lattice_family",
    "single_lattice_qracah_params",
    "verify_qracah_identity",
    "richardson",
    "dual_hahn_limit",
]

# Working precision (decimal digits) of the dual-Hahn and theta limits.
LIMIT_DIGITS = 50

# The dual-Hahn limit's step families, and the decimal digits to which its
# last two Richardson estimates must agree: 10^-4 is no looser than the
# tolerance of verify's dual-hahn-limit line.
DUAL_HAHN_STEPS = 6
CONTRACTION_DIGITS = 4


class ExtrapolationError(ArithmeticError):
    """Successive extrapolation estimates failed to contract."""


class QRacahParams:
    """The four q-Racah parameters and the nome they live in."""

    def __init__(self, alpha, beta, gamma, delta, q):
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.delta = delta
        self.q = q


def qracah_recurrence_ac(p: QRacahParams, n: int):
    """A_n and C_n of the q-Racah three-term recurrence; q^n, q^(n+1) and
    q^(2n+1) are each formed once."""
    if n < 0:
        raise ValueError("n must be non-negative")
    al, be, ga, de, q = p.alpha, p.beta, p.gamma, p.delta, p.q
    ab = al * be
    qn, qn1, q2n1 = q ** n, q ** (n + 1), q ** (2 * n + 1)
    den_a = (1 - ab * q2n1) * (1 - ab * q ** (2 * n + 2))
    den_c = (1 - ab * q ** (2 * n)) * (1 - ab * q2n1)
    guard = typed_float(1e-13, q)
    if abs(den_a) < guard or abs(den_c) < guard:
        raise ArithmeticError("q-Racah recurrence denominator vanishes at n = %d" % n)
    A = ((1 - al * qn1) * (1 - ab * qn1) * (1 - be * de * qn1) * (1 - ga * qn1) / den_a)
    C = (q * (1 - qn) * (1 - be * qn) * (ga - ab * qn) * (de - al * qn) / den_c)
    return A, C


def _qracah_monic_coefficients(p: QRacahParams, n: int):
    """Monic coefficients b_0..b_{n-1} and u_0..u_{n-1} (u_0 = 0.0); the
    recurrence is in the variable y itself."""
    rows = [qracah_recurrence_ac(p, m) for m in range(n)]
    return monic_coefficients(rows, range(n), range(n), 1 + p.gamma * p.delta * p.q, 1)


def single_lattice_family(a, q, N: int) -> ParaRacahFamily:
    """The persymmetric bi-lattice family whose grid collapses to one lattice."""
    return ParaRacahFamily(a=a, c=a * sqrt(q), alpha=typed_float(0.5, q), q=q, N=N)


def single_lattice_qracah_params(a, q, N: int) -> QRacahParams:
    """The q-Racah parameter set matched to the collapsed-lattice family.

    Lives in the square-root base: with p = sqrt(q),

        alpha = a p^{-1/2},  beta = -a^{-1} p^{-N-1/2},
        gamma = delta = -a p^{-1/2}.

    The beta exponent reads -j - 3/4 in base q with j = (N-1)/2 continued to
    half-integers; this is what makes alpha*beta*delta*... truncate at degree
    N for both parities (beta delta p = p^{-N}).
    """
    p = sqrt(q)
    sp = sqrt(p)
    return QRacahParams(
        alpha=a / sp,
        beta=-p ** (-(N - 1)) / (a * p * sp),
        gamma=-a / sp,
        delta=-a / sp,
        q=p,
    )


def verify_qracah_identity(a, q, N: int, zs) -> float:
    """Max over n <= N and the points z in zs, x = (z + 1/z)/2, of the scaled
    two-sided deviation of the identity

        R_n(x; a, a sqrt(q), 1/2) = (2a)^{-n} p_n(2 a x)

    with p_n the monic q-Racah polynomial of :func:`single_lattice_qracah_params`.
    Both coefficient tables are filled once for all points; a NaN deviation
    makes the result NaN.
    """
    tri = tridiagonal(single_lattice_family(a, q, N))
    qr_coefficients = _qracah_monic_coefficients(single_lattice_qracah_params(a, q, N), N)
    rhs_scales = [(2 * a) ** -n for n in range(N + 1)]
    one = unit(q)  # typed by q, so a Decimal scale is not compared with a float
    worst = one - one
    for z in zs:
        x = (z + 1 / z) / 2
        lhs_values = tri.values(x, N)
        rhs_values = monic_values(*qr_coefficients, 2 * a * x)
        for lhs, rhs_scale, p_n in zip(lhs_values, rhs_scales, rhs_values):
            rhs = rhs_scale * p_n
            scale = max(abs(lhs), abs(rhs), one)
            worst = max_keep_nan(worst, abs(lhs - rhs) / scale)
    return float(worst)


def richardson(values, ratio):
    """The last entry of every level of the Richardson table of the values
    v_k = L + c1 h_k + c2 h_k^2 + ..., h_k shrinking by the integer
    ``ratio`` each step: from v_last itself to the fully accelerated estimate
    of L.  Each entry is (f * hi - lo) / (f - 1) with the integer
    f = ratio**level."""
    table = list(values)
    estimates = [table[-1]]
    for level in range(1, len(table)):
        f = ratio ** level
        table = [(f * hi - lo) / (f - 1) for lo, hi in zip(table, table[1:])]
        estimates.append(table[-1])
    return estimates


def dual_hahn_limit(a_exponent, N: int, degrees) -> list:
    """q -> 1 limits of A_n/(1-sqrt(q))^2 and C_n/(1-sqrt(q))^2 at the
    collapsed-lattice configuration c = a sqrt(q), alpha = 1/2, a = q^a_exponent.

    Richardson-extrapolates DUAL_HAHN_STEPS families along sqrt(q) = 1 - 2^-k,
    k = k0, k0 + 1, ..., built once at LIMIT_DIGITS digits, with one limit
    pass (:func:`~qortho.para_racah.limit_rows`) each for all degrees.  The
    first step is read from the exponent e: k0 is the smallest k >= 8 with
    2^k > 32 |e|, so a = q^e ~ exp(-2 e 2^-k) stays within exp(+-1/16) of 1
    at every step, whatever e.  A limit whose last two estimates differ by
    more than 10^-CONTRACTION_DIGITS relative to max(|limit|, 1), or whose
    finest step leaves fewer than 53 bits of 1 - sqrt(q) above
    10^-(LIMIT_DIGITS + 1), raises :class:`ExtrapolationError`.  Returns one
    ``(lim_a, lim_c, target_a, target_c)`` per degree n in ``degrees``;
    the targets are the dual-Hahn recurrence coefficients with both lattice
    parameters (4*a_exponent - 1)/2:

        target_a = (n + (4a-1)/2 + 1)(n - N),
        target_c = n (n - (4a-1)/2 - N - 1).
    """
    degrees = list(degrees)
    if not all(0 <= n <= N for n in degrees):
        raise ValueError("n must satisfy 0 <= n <= N")
    if not degrees:
        return []
    g = (4 * a_exponent - 1) / 2
    # 2^(bits-1) <= |e| < 2^bits for |e| >= 1, so k = bits + 5 is the
    # smallest k with 2^k > 32 |e|; |e| < 1 reads bits = 0.  int() truncates a
    # Decimal exactly, where abs() would round it in the caller's context.
    first = max(8, abs(int(a_exponent)).bit_length() + 5)
    # The finest step keeps 53 bits above 10^-(LIMIT_DIGITS + 1), twenty
    # times the half unit in which the context, carrying the guard digits,
    # rounds sqrt(q) < 1: at 50 digits that is |e| < 2^106.
    if 2 ** (first + DUAL_HAHN_STEPS - 1 + 53) > 10 ** (LIMIT_DIGITS + 1):
        raise ExtrapolationError("step families are not resolved at %d digits" % LIMIT_DIGITS)
    out = []
    with extended_precision(LIMIT_DIGITS):
        # The exponent is converted once, and alpha is typed by q.
        exponent = to_extended(a_exponent)
        fams, scales = [], []
        for k in range(first, first + DUAL_HAHN_STEPS):
            p = 1 - unit(exponent) / 2 ** k
            q = p * p
            a = q ** exponent
            fams.append(ParaRacahFamily(a=a, c=a * p, alpha=unit(q) / 2, q=q, N=N))
            scales.append((1 - p) ** 2)
        rows = [limit_rows(fam, degrees) for fam in fams]
        for i, n in enumerate(degrees):
            limits = []
            for steps in zip(*(row[i] for row in rows)):
                *_, prev, last = richardson([v / s for v, s in zip(steps, scales)], 2)
                if abs(last - prev) * 10 ** CONTRACTION_DIGITS > max(abs(last), 1):
                    raise ExtrapolationError("extrapolation estimates are not contracting")
                limits.append(float(last))
            out.append((*limits, float((n + g + 1) * (n - N)), float(n * (n - g - N - 1))))
    return out
