"""The (a z, a/z; q)_k basis factor of the Askey-Wilson series, and the
value of a terminating series spelled out as a :class:`SeriesSpec`."""

from __future__ import annotations

from qortho import qseries
from qortho.qseries import qpochhammer

__all__ = ["SeriesSpec", "phi_basis", "terminating_series_eval"]


class SeriesSpec:
    """A terminating basic hypergeometric sum.

    sum_{k=0}^{d} [prod (num; q)_k / prod (den; q)_k] * argument**k

    where d is the truncation degree, always stated.  Callers wanting the
    standard phi-series convention list q among the denominator parameters.
    """

    def __init__(self, numerator: tuple, denominator: tuple, q, argument, truncation: int):
        self.numerator = numerator
        self.denominator = denominator
        self.q = q
        self.argument = argument
        self.truncation = truncation


def phi_basis(a, z, q, k):
    """The degree-k basis factor (a z; q)_k (a/z; q)_k at x = (z + 1/z)/2."""
    if z == 0:
        raise ValueError("z must be nonzero")
    return qpochhammer(a * z, q, k) * qpochhammer(a / z, q, k)


def terminating_series_eval(spec: SeriesSpec):
    """Evaluate a terminating parameter-list series term by term."""
    # Read from the module on each call, so that a tracer wrapping the
    # function in qortho.qseries sees this call.
    return qseries._series_eval_with_magnitude(spec)[0]
