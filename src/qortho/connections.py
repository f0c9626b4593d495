"""Reductions on a single lattice: the monic q-Racah identity at c = a sqrt(q)
with alpha = 1/2, and the dual-Hahn limit of the recurrence coefficients as
q -> 1.

The monic q-Racah recurrence is transcribed from the standard reference
tables; its transcription is validated through the identity itself against
the independently built bi-lattice side.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from .para_racah import ParaRacahFamily, limit_recurrence_ac
from .recurrence import monic_values, tridiagonal
from .scalars import sqrt

__all__ = [
    "QRacahParams",
    "ExtrapolationError",
    "qracah_recurrence_ac",
    "qracah_monic_eval",
    "single_lattice_family",
    "single_lattice_qracah_params",
    "single_lattice_points",
    "verify_qracah_identity",
    "dual_hahn_limit",
]


class ExtrapolationError(ArithmeticError):
    """Successive extrapolation estimates failed to contract."""


@dataclass(frozen=True)
class QRacahParams:
    """The four q-Racah parameters and the nome they live in."""

    alpha: object
    beta: object
    gamma: object
    delta: object
    q: object


def qracah_recurrence_ac(p: QRacahParams, n: int):
    """A_n and C_n of the q-Racah three-term recurrence."""
    if n < 0:
        raise ValueError("n must be non-negative")
    al, be, ga, de, q = p.alpha, p.beta, p.gamma, p.delta, p.q
    ab = al * be
    den_a = (1 - ab * q ** (2 * n + 1)) * (1 - ab * q ** (2 * n + 2))
    den_c = (1 - ab * q ** (2 * n)) * (1 - ab * q ** (2 * n + 1))
    if abs(den_a) < 1e-13 or abs(den_c) < 1e-13:
        raise ArithmeticError("q-Racah recurrence denominator vanishes at n = %d" % n)
    A = ((1 - al * q ** (n + 1)) * (1 - ab * q ** (n + 1))
         * (1 - be * de * q ** (n + 1)) * (1 - ga * q ** (n + 1)) / den_a)
    C = (q * (1 - q ** n) * (1 - be * q ** n)
         * (ga - ab * q ** n) * (de - al * q ** n) / den_c)
    return A, C


def _qracah_monic_coefficients(p: QRacahParams, n: int):
    """Monic coefficients b_0..b_{n-1} and u_0..u_{n-1} (u_0 = 0.0)."""
    b, u = [], []
    prev_A = None
    for m in range(n):
        A, C = qracah_recurrence_ac(p, m)
        b.append(1 + p.gamma * p.delta * p.q - A - C)
        u.append(0.0 if m == 0 else prev_A * C)
        prev_A = A
    return b, u


def qracah_monic_eval(p: QRacahParams, n: int, y):
    """Monic q-Racah value by forward recurrence from p_{-1} = 0, p_0 = 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return monic_values(*_qracah_monic_coefficients(p, n), y)[-1]


def single_lattice_family(a, q, N: int) -> ParaRacahFamily:
    """The persymmetric bi-lattice family whose grid collapses to one lattice."""
    return ParaRacahFamily(a=a, c=a * sqrt(q), alpha=0.5, q=q, N=N)


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


def single_lattice_points(a, q, N: int) -> tuple:
    """x_s = (a^{-1} q^{-s/2} + a q^{s/2})/2 for s = 0..N."""
    p = sqrt(q)
    return tuple((1 / (a * p ** s) + a * p ** s) / 2 for s in range(N + 1))


def verify_qracah_identity(a, q, N: int, z) -> float:
    """Max over n <= N of the scaled two-sided deviation of the identity

        R_n(x; a, a sqrt(q), 1/2) = (2a)^{-n} p_n(2 a x)

    with p_n the monic q-Racah polynomial of :func:`single_lattice_qracah_params`.
    """
    fam = single_lattice_family(a, q, N)
    qr = single_lattice_qracah_params(a, q, N)
    x = (z + 1 / z) / 2
    lhs_values = tridiagonal(fam).values(x, N)
    rhs_values = monic_values(*_qracah_monic_coefficients(qr, N), 2 * a * x)
    worst = 0.0
    for n, (lhs, p_n) in enumerate(zip(lhs_values, rhs_values)):
        rhs = (2 * a) ** -n * p_n
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    return float(worst)


def _richardson_halving(values):
    """Accelerate v_k = L + c1 h_k + c2 h_k^2 + ... with h_k halving each step."""
    table = list(values)
    level = 0
    last = table[-1]
    deltas = []
    while len(table) > 1:
        level += 1
        f = mpmath.mpf(2) ** level
        table = [(f * hi - lo) / (f - 1) for lo, hi in zip(table, table[1:])]
        deltas.append(abs(table[-1] - last))
        last = table[-1]
    if deltas and deltas[-1] > max(abs(last), mpmath.mpf(1)) * mpmath.mpf("1e-3"):
        raise ExtrapolationError("extrapolation estimates are not contracting")
    return last


def dual_hahn_limit(a_exponent, N: int, n: int, digits: int = 50):
    """q -> 1 limit of A_n/(1-sqrt(q))^2 and C_n/(1-sqrt(q))^2 at the
    collapsed-lattice configuration c = a sqrt(q), alpha = 1/2, a = q^a_exponent.

    Approaches along sqrt(q) = 1 - 2^-k at extended precision and Richardson-
    accelerates the first-order tail.  Returns
    ``(lim_a, lim_c, target_a, target_c)`` where the targets are the dual-Hahn
    recurrence coefficients with both lattice parameters (4*a_exponent - 1)/2:

        target_a = (n + (4a-1)/2 + 1)(n - N),
        target_c = n (n - (4a-1)/2 - N - 1).
    """
    if not 0 <= n <= N:
        raise ValueError("n must satisfy 0 <= n <= N")
    with mpmath.workdps(digits):
        vals_a, vals_c = [], []
        for k in range(6, 17):
            p = 1 - mpmath.mpf(2) ** -k
            q = p * p
            a = q ** mpmath.mpf(a_exponent)
            fam = ParaRacahFamily(a=a, c=a * p, alpha=0.5, q=q, N=N)
            A, C = limit_recurrence_ac(fam, n)
            s = (1 - p) ** 2
            vals_a.append(A / s)
            vals_c.append(C / s)
        lim_a = _richardson_halving(vals_a)
        lim_c = _richardson_halving(vals_c)
    g = (4 * a_exponent - 1) / 2
    target_a = (n + g + 1) * (n - N)
    target_c = n * (n - g - N - 1)
    return float(lim_a), float(lim_c), float(target_a), float(target_c)
