"""The monic q-Racah polynomial by forward recurrence and the single lattice
of the collapsed family c = a sqrt(q), alpha = 1/2."""

from __future__ import annotations

from qortho.connections import QRacahParams, _qracah_monic_coefficients
from qortho.recurrence import monic_values
from qortho.scalars import sqrt

__all__ = ["qracah_monic_eval", "single_lattice_points"]


def qracah_monic_eval(p: QRacahParams, n: int, y):
    """Monic q-Racah value by forward recurrence from p_{-1} = 0, p_0 = 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return monic_values(*_qracah_monic_coefficients(p, n), y)[-1]


def single_lattice_points(a, q, N: int) -> tuple:
    """x_s = (a^{-1} q^{-s/2} + a q^{s/2})/2 for s = 0..N."""
    p = sqrt(q)
    return tuple((1 / (a * p ** s) + a * p ** s) / 2 for s in range(N + 1))
