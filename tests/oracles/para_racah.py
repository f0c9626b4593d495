"""The printed positivity inequalities of a q-para-Racah family, its
factorised characteristic polynomial, and its explicit expansion in the
per-point series form: each degree's head and tail series summed at the
point, with the point's parameters a z and a / z among their numerators."""

from __future__ import annotations

from qortho.para_racah import ParaRacahFamily, _eta, _unpack, eval_recurrence
from qortho.qseries import qpochhammer
from qortho.recurrence import TridiagonalSystem

from .qseries import series_value

__all__ = ["PositivityReport", "positivity_check", "char_poly_eval", "char_poly_scale",
           "explicit_series_value"]


class PositivityReport:
    """Two verdicts: the printed parameter inequalities and the direct u-scan.

    The two can disagree (the inequalities are necessary for the odd case but
    not sharp for the even one), which is why both are reported.
    """

    def __init__(self, conditions_ok: bool, failed_conditions: tuple, u_positive: bool,
                 min_u: float):
        self.conditions_ok = conditions_ok
        self.failed_conditions = failed_conditions
        self.u_positive = u_positive
        self.min_u = min_u


def char_poly_eval(fam: ParaRacahFamily, z):
    """The factorized characteristic polynomial, up to an overall constant.

    Proportional to R_{N+1}(x(z)); the constant is fitted once per family by
    :func:`char_poly_scale`.
    """
    if z == 0:
        raise ValueError("z must be nonzero")
    a, c, _, q, j = _unpack(fam)
    return (qpochhammer(a * z, q, j + 1) * qpochhammer(a / z, q, j + 1)
            * qpochhammer(c * z, q, fam.N - j) * qpochhammer(c / z, q, fam.N - j))


# Fixed fitting point for the characteristic-polynomial scale: negative, so
# it can never collide with the (positive) z representatives of the lattice.
_SCALE_Z = -1.25


def char_poly_scale(tri: TridiagonalSystem):
    """Constant kappa with R_{N+1}(x(z)) = kappa * char_poly_eval(z)."""
    fam = tri.family
    return eval_recurrence(tri, fam.N + 1, _SCALE_Z) / char_poly_eval(fam, _SCALE_Z)


def positivity_check(tri: TridiagonalSystem) -> PositivityReport:
    """Evaluate the printed parameter inequalities of the table's family and
    scan its u_1..u_N > 0."""
    fam = tri.family
    a, c, al, q, _ = _unpack(fam)
    failed = []
    if not 0 < q < 1:
        failed.append("0 < q < 1")
    if not 0 < al < 1:
        failed.append("0 < alpha < 1")
    if fam.degenerate:
        failed.append("c != a")
    ratio = a / c
    if not q < ratio < 1 / q:
        failed.append("q < a/c < 1/q")
    if not (a * c < 1 or a * c > fam.powers()[1 - fam.N]):
        failed.append("ac < 1 or ac > q^(1-N)")
    min_u = min(tri.u)
    return PositivityReport(
        conditions_ok=not failed,
        failed_conditions=tuple(failed),
        u_positive=tri.positive,
        min_u=float(min_u),
    )


def explicit_series_value(fam: ParaRacahFamily, n: int, z):
    """(R_n(x(z)), cancellation scale) of the explicit expression summed at
    the point: eta times the head series in (q^-n, q^(n-N), az, a/z), plus
    for n > j the alpha-weighted prefactor with (az; q)_(j+1) (a/z; q)_(j+1)
    times the tail series in (a q^(j+1) z, a q^(j+1)/z); for odd N at
    n = j, j+1 the middle series and its one tail term."""
    a, c, al, q, j = _unpack(fam)
    N = fam.N
    eta = _eta(fam, n)
    if fam.odd and n in (j, j + 1):
        body, mag = series_value((q ** (-j - 1), a * z, a / z),
                                 (q, a * c, (a / c) * q ** -j), q, q, j)
        if n == j:
            return eta * body, abs(eta) * mag
        extra = (qpochhammer(q ** (-j - 1), q, j + 1) * qpochhammer(a * z, q, j + 1)
                 * qpochhammer(a / z, q, j + 1) * q ** (j + 1)
                 / (al * qpochhammer(q, q, j + 1) * qpochhammer(a * c, q, j + 1)
                    * qpochhammer((a / c) * q ** -j, q, j + 1)))
        return eta * (body + extra), abs(eta) * (mag + abs(extra))
    r = (a / c) * q ** (j + 1 - N)
    head_num = (q ** -n, q ** (n - N), a * z, a / z)
    head_den = (q ** -j, a * c, r, q)
    if n <= j:
        body, mag = series_value(head_num, head_den, q, q, n)
        return eta * body, abs(eta) * mag
    head, head_mag = series_value(head_num, head_den, q, q, N - n)
    pref = (qpochhammer(q ** (n - N), q, N - n) * qpochhammer(q ** -n, q, j + 1)
            * qpochhammer(a * z, q, j + 1) * qpochhammer(a / z, q, j + 1)
            * qpochhammer(q, q, n + j - N) * q ** (j + 1)
            / (al * qpochhammer(q ** -j, q, j) * qpochhammer(q, q, j + 1)
               * qpochhammer(a * c, q, j + 1) * qpochhammer(r, q, j + 1)))
    tail, tail_mag = series_value(
        (q ** (j + 1 - n), q ** (n + j + 1 - N), a * q ** (j + 1) * z, a * q ** (j + 1) / z),
        (q ** (j + 2), a * c * q ** (j + 1), (a / c) * q * q ** (2 * j + 1 - N), q),
        q, q, n - j - 1)
    return eta * (head + pref * tail), abs(eta) * (head_mag + abs(pref) * tail_mag)
