"""The printed positivity inequalities of a q-para-Racah family and its
factorised characteristic polynomial."""

from __future__ import annotations

from qortho.para_racah import ParaRacahFamily, _unpack, eval_recurrence
from qortho.qseries import qpochhammer
from qortho.recurrence import TridiagonalSystem

__all__ = ["PositivityReport", "positivity_check", "char_poly_eval", "char_poly_scale"]


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
