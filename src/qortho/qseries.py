"""q-Pochhammer symbols and terminating basic hypergeometric sums.

This is the numeric substrate of the package.  The series engine treats
numerator and denominator parameter lists uniformly: the standard r-phi-s
normalisation is obtained by listing the nome q itself among the denominator
parameters, which contributes the usual (q;q)_k factor.  Every sum
terminates, either at an explicitly supplied truncation degree or at the
degree implied by a numerator parameter of the form q**(-n).  A
:class:`SeriesPlan` computes the parameter-only factors once, so that a sum
taken at many evaluation points recomputes only the point-dependent ones.

In binary64 mode terms are accumulated in increasing k with compensated
(Kahan) summation; mpmath inputs are summed plainly since the working
precision already dominates the roundoff budget.  When every operand is an
mpmath mpf, :meth:`SeriesPlan.sum` runs on mpmath's raw tuples
(:mod:`qortho._mpfloops`): each step is the ``mpmath.libmp`` call the mpf
operator makes, at the (prec, rounding) the operator reads, so the result is
the operator loop's bit for bit, without the operator's type dispatch and
the mpf it builds per step.  Any other operand keeps the operator loop;
:func:`qpochhammer` is always the operator loop.
"""

from __future__ import annotations

import math

from .scalars import all_mpf, is_mp, typed_float

__all__ = [
    "SingularSeriesError",
    "SeriesSpec",
    "SeriesPlan",
    "qpochhammer",
    "PowerTable",
    "terminating_series_eval",
]

# Relative guard below which a denominator q-Pochhammer factor is treated as
# an exact zero: legitimate factors in this package never come this close.
_SINGULAR_GUARD = 1e-13


class SingularSeriesError(ArithmeticError):
    """A denominator q-Pochhammer factor vanishes inside the summation range."""

    def __init__(self, parameter, index):
        self.parameter = parameter
        self.index = index
        super().__init__(
            "denominator factor 1 - (%s) * q^%d vanishes" % (parameter, index)
        )


def _check_nome(q):
    if not 0 < q < 1:
        raise ValueError("nome q must be real with 0 < q < 1")


def _check_length(k) -> int:
    try:
        ki = int(k)
    except (OverflowError, ValueError, TypeError):
        raise ValueError("only finite integer q-Pochhammer lengths are supported")
    if ki != k:
        raise ValueError("only finite integer q-Pochhammer lengths are supported")
    if ki < 0:
        raise ValueError("q-Pochhammer length must be non-negative")
    return ki


def qpochhammer(a, q, k):
    """(a;q)_k = prod_{i=0}^{k-1} (1 - a q^i); the empty product q^0 for k = 0."""
    _check_nome(q)
    k = _check_length(k)
    out = qpow = q ** 0
    for _ in range(k):
        out = out * (1 - a * qpow)
        qpow = qpow * q
    return out


class PowerTable(dict):
    """``table[k]`` is ``q ** k`` itself, computed on first read (a power
    that raises is not stored), and :meth:`pochhammer` extends each base's
    prefixes (base; q)_0..k in :func:`qpochhammer`'s operation order: both
    are the direct values bit for bit, at the precision that filled them."""

    __slots__ = ("q", "_running", "_rows")

    def __init__(self, q):
        self.q = q
        # q^0, q^0 q, q^0 q q, ...: the running powers of qpochhammer.
        self._running = [q ** 0]
        self._rows = {}

    def __missing__(self, k):
        value = self[k] = self.q ** k
        return value

    def _extend(self, k) -> list:
        running = self._running
        while len(running) < k:
            running.append(running[-1] * self.q)
        return running

    def running(self, k) -> list:
        """The first k running powers q^0, q^0 q, q^0 q q, ... (a new list):
        :func:`qpochhammer`'s, and every :class:`SeriesPlan`'s ``qpows``."""
        return self._extend(k)[:k]

    def pochhammer(self, base, k):
        """(base; q)_k, bit for bit ``qpochhammer(base, q, k)``."""
        # Hashing an mpf costs a multiplication; its _mpf_ tuple is cheap.
        key = getattr(base, "_mpf_", base)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [self._running[0]]
        n = len(row)
        if k < n:
            if k < 0:
                raise ValueError("q-Pochhammer length must be non-negative")
            return row[k]
        running = self._extend(k)
        out = row[-1]
        for i in range(n - 1, k):
            out = out * (1 - base * running[i])
            row.append(out)
        return out


class SeriesSpec:
    """A terminating basic hypergeometric sum.

    sum_{k=0}^{d} [prod (num; q)_k / prod (den; q)_k] * argument**k

    where d is the truncation degree.  Callers wanting the standard phi-series
    convention list q among the denominator parameters.
    """

    def __init__(self, numerator: tuple, denominator: tuple, q, argument,
                 truncation: int | None = None):
        self.numerator = numerator
        self.denominator = denominator
        self.q = q
        self.argument = argument
        self.truncation = truncation


def _terminating_degree(numerator, q) -> int:
    """Smallest n with some numerator parameter equal to q**(-n), n >= 0."""
    logq = math.log(float(q))
    best = None
    for p in numerator:
        if getattr(p, "imag", 0.0) != 0:
            continue
        x = float(getattr(p, "real", p))
        if x <= 0:
            continue
        n = round(-math.log(x) / logq)
        if n < 0:
            continue
        if abs(x * float(q) ** n - 1.0) <= 1e-9:
            best = n if best is None else min(best, n)
    if best is None:
        raise ValueError(
            "series does not terminate: no numerator parameter of the form "
            "q**(-n); supply an explicit truncation degree"
        )
    return best


def terminating_series_eval(spec: SeriesSpec):
    """Evaluate a terminating parameter-list series term by term."""
    return _series_eval_with_magnitude(spec)[0]


def _series_eval_with_magnitude(spec: SeriesSpec):
    """(value, sum of |term|): the magnitude bounds the cancellation noise."""
    q = spec.q
    _check_nome(q)
    num = tuple(spec.numerator)
    degree = spec.truncation
    if degree is None:
        degree = _terminating_degree(num, q)
    return SeriesPlan(num, tuple(spec.denominator), q, spec.argument, degree).sum()


class SeriesPlan:
    """The parameter-only work of a terminating sum, done once for many sums.

    For each k below the truncation degree the plan holds q^k (``qpows``, the
    running powers q^0, q^0 q, ... of :func:`qpochhammer`) and the factors
    1 - p q^k of the fixed numerator and of the denominator parameters, the
    latter already checked against the singular guard.  :meth:`sum` then
    takes the factors of the numerator parameters that vary from sum to sum
    (an evaluation point), which the caller builds once and may share between
    plans.  Every factor goes into the term in the same order as in a sum
    written with the varying parameters listed after the fixed ones, so the
    result is that sum's bit for bit.  A plan holds values at the working
    precision that built it and belongs to one computation.
    """

    def __init__(self, numerator, denominator, q, argument, degree: int):
        if degree < 0:
            raise ValueError("truncation degree must be non-negative")
        self.degree = degree
        self.argument = argument
        self.plain = any(is_mp(v) for v in (q, argument) + numerator + denominator)
        self.first = argument ** 0
        self.qpows = []
        one = qpow = q ** 0  # the guard's terms, typed by q
        guard = typed_float(_SINGULAR_GUARD, one)
        for _ in range(degree):
            self.qpows.append(qpow)
            qpow = qpow * q
        self.num = []
        self.den = []
        for k, qpow in enumerate(self.qpows):
            self.num.append(tuple(1 - p * qpow for p in numerator))
            row = []
            for p in denominator:
                pq = p * qpow
                f = 1 - pq
                if abs(f) <= guard * max(one, abs(pq)):
                    raise SingularSeriesError(p, k)
                row.append(f)
            self.den.append(tuple(row))
        # Then sum() may run on raw tuples (qortho._mpfloops), bit for bit.
        self.all_mpf = all_mpf((self.first, argument), self.qpows, *self.num, *self.den)

    def sum(self, rows=()):
        """(value, sum of |term|) with one varying numerator parameter p per
        row of ``rows``, each given by its factors: ``row[k]`` is
        1 - p * ``qpows[k]`` for every k below the degree (a longer row is
        read only that far)."""
        if self.all_mpf and all_mpf(*rows):
            from . import _mpfloops
            return _mpfloops.series_sum(self, rows)
        degree, argument = self.degree, self.argument
        plain = self.plain or any(is_mp(f) for row in rows for f in row[:degree])
        num, den = self.num, self.den
        # The first term is exactly 1, so it starts the sums as they are.
        term = total = self.first
        comp = term - term
        magnitude = abs(term)
        for k in range(degree):
            for f in num[k]:
                term = term * f
            for row in rows:
                term = term * row[k]
            for f in den[k]:
                term = term / f
            term = term * argument
            magnitude = magnitude + abs(term)
            if plain:
                total = total + term
            else:
                y = term - comp
                t = total + y
                comp = (t - total) - y
                total = t
        return total, magnitude
