"""The (a z, a/z; q)_k basis factor of the Askey-Wilson series, the value
of a terminating series spelled out as a :class:`SeriesSpec`, and the same
series summed term by term by a self-contained loop."""

from __future__ import annotations

from qortho import qseries
from qortho.qseries import qpochhammer
from qortho.scalars import is_extended, typed_float

__all__ = ["SeriesSpec", "phi_basis", "terminating_series_eval", "series_terms",
           "series_value"]


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


def series_terms(num, den, q, argument, degree) -> list:
    """The terms t_0..t_degree of sum_k prod (num; q)_k / prod (den; q)_k
    arg^k, t_0 = 1, each factor 1 - p q^k on the running power q^0 q ... q.
    Raises SingularSeriesError at the first vanishing denominator factor."""
    term = argument ** 0
    terms = [term]
    qpow = q ** 0
    guard = typed_float(qseries._SINGULAR_GUARD, q)
    for k in range(degree):
        for p in num:
            term = term * (1 - p * qpow)
        for p in den:
            f = 1 - p * qpow
            if abs(f) <= guard * max(qpow ** 0, abs(p * qpow)):
                raise qseries.SingularSeriesError(p, k)
            term = term / f
        term = term * argument
        terms.append(term)
        qpow = qpow * q
    return terms


def series_value(num, den, q, argument, degree):
    """(value, sum of |term|) of :func:`series_terms` in increasing k:
    compensated (Kahan) unless an operand is a Decimal."""
    plain = any(is_extended(v) for v in (q, argument) + num + den)
    total = comp = magnitude = 0 * q
    for term in series_terms(num, den, q, argument, degree):
        magnitude = magnitude + abs(term)
        if plain:
            total = total + term
        else:
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
    return total, magnitude
