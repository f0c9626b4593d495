"""q-Pochhammer symbols and terminating basic hypergeometric sums.

This is the numeric substrate of the package.  The series engine treats
numerator and denominator parameter lists uniformly: the standard r-phi-s
normalisation is obtained by listing the nome q itself among the denominator
parameters, which contributes the usual (q;q)_k factor.  Every sum
terminates at a truncation degree its caller states.
:func:`series_terms` reads the parameter-only factors from a
:class:`PowerTable` and gives the sum's coefficient row, its terms
t_0..t_d.  A sum whose parameters also depend on an evaluation point is
that row times a basis row of the point's own (the explicit expansion of
:mod:`qortho.para_racah`, which adds the products left to right), so a
point costs one product per term.  Every factor 1 - p q^k comes from one
loop, :meth:`PowerTable.factors`.
"""

from __future__ import annotations

from .scalars import is_extended, is_finite, typed_float

__all__ = [
    "SingularSeriesError",
    "series_terms",
    "qpochhammer",
    "PowerTable",
]

# Relative guard below which a denominator q-Pochhammer factor is treated as
# an exact zero: legitimate factors in this package never come this close.
_SINGULAR_GUARD = 1e-13


class SingularSeriesError(ArithmeticError):
    """A denominator q-Pochhammer factor vanishes inside the summation range."""

    def __init__(self, parameter, index):
        self.parameter = parameter
        self.index = index
        super().__init__("denominator factor 1 - (%s) * q^%d vanishes" % (parameter, index))


def _check_nome(q):
    if not 0 < q < 1:
        raise ValueError("nome q must be real with 0 < q < 1")


def _check_length(k) -> int:
    try:
        ki = int(k)
    except (OverflowError, ValueError, TypeError):
        ki = None
    if ki != k:
        raise ValueError("only finite integer q-Pochhammer lengths are supported")
    return ki


def qpochhammer(a, q, k):
    """(a;q)_k = prod_{i=0}^{k-1} (1 - a q^i); the empty product q^0 for k = 0."""
    _check_nome(q)
    return PowerTable(q).pochhammer(a, _check_length(k))


class PowerTable(dict):
    """``table[k]`` is ``q ** k`` itself, computed on first read (a power
    that raises is not stored).  From the running powers q^0, q^0 q, ... the
    table forms, once per base and index, the factors 1 - base q^i
    (:meth:`factors`, the package's one such loop), their prefixes
    (:meth:`pochhammer`) and their singular-guard check (:meth:`vanishing`):
    each is the direct loop's value bit for bit, at the precision that
    filled it."""

    __slots__ = ("q", "_running", "_rows", "_prefixes", "_clear")

    def __init__(self, q):
        self.q = q
        self._running = [q ** 0]
        # Per base: its factors, its prefixes, how many factors passed the guard.
        self._rows = {}
        self._prefixes = {}
        self._clear = {}

    def __missing__(self, k):
        value = self[k] = self.q ** k
        return value

    def factors(self, base, k) -> list:
        """The factors 1 - base q^i for i < k: the table's own row, at least k
        long, shared by every reader and extended in place."""
        row = self._rows.setdefault(base, [])
        if len(row) < k:
            running = self._running
            while len(running) < k:
                running.append(running[-1] * self.q)
            row.extend([1 - base * qpow for qpow in running[len(row):k]])
        return row

    def pochhammer(self, base, k):
        """(base; q)_k, the product of the base's first k factors in order."""
        if k < 0:
            raise ValueError("q-Pochhammer length must be non-negative")
        prefixes = self._prefixes.get(base) or self._prefixes.setdefault(base, [self._running[0]])
        if k >= len(prefixes):
            for f in self.factors(base, k)[len(prefixes) - 1:k]:
                prefixes.append(prefixes[-1] * f)
        return prefixes[k]

    def vanishing(self, base, k) -> int:
        """The lowest i < k at which the factor 1 - base q^i lies within the
        singular guard of zero, relative to max(1, |base q^i|), or k; an
        infinite factor, which the guard takes for a zero, raises ``OverflowError``."""
        clear = self._clear.get(base, 0)
        if clear < k:
            row, running = self.factors(base, k), self._running
            one = running[0]  # the guard's terms, typed by q
            guard = typed_float(_SINGULAR_GUARD, one)
            while clear < k and not abs(row[clear]) <= guard * max(one, abs(base * running[clear])):
                clear += 1
            if clear < k and not is_finite(row[clear]):
                raise OverflowError("denominator factor 1 - (%s) * q^%d is infinite" % (base, clear))
            self._clear[base] = clear
        return min(clear, k)


def series_terms(numerator, denominator, table, argument, degree: int) -> list:
    """The terms t_0..t_degree of sum_k prod (numerator; q)_k /
    prod (denominator; q)_k argument^k, the sum's coefficient row: t_0 = 1,
    and t_(k+1) is t_k times each numerator factor 1 - p q^k, divided by
    each denominator factor and times the argument, in that order.  The
    factors are rows of ``table``, so the sums of one family share its rows
    and guard checks; a vanishing denominator raises
    :class:`SingularSeriesError` at the lowest such k and the first
    parameter there."""
    if degree < 0:
        raise ValueError("truncation degree must be non-negative")
    term = argument ** 0
    vanishing = [table.vanishing(p, degree) for p in denominator]
    k = min(vanishing, default=degree)
    if k < degree:
        raise SingularSeriesError(denominator[vanishing.index(k)], k)
    num = [table.factors(p, degree) for p in numerator]
    den = [table.factors(p, degree) for p in denominator]
    out = [term]
    for k in range(degree):
        for row in num:
            term = term * row[k]
        for row in den:
            term = term / row[k]
        term = term * argument
        out.append(term)
    return out


def _series_eval_with_magnitude(spec):
    """(value, sum of |term|) of a spelled-out sum, its :func:`series_terms`
    added in increasing k: compensated (Kahan) in binary64, plainly when an
    operand is a Decimal, since the working precision already dominates the
    roundoff budget there.  The magnitude bounds the cancellation noise.
    ``spec`` carries ``numerator``, ``denominator``, ``q``, ``argument`` and
    ``truncation``, the degree, as the test oracle's ``SeriesSpec`` does;
    only that oracle calls this function, and the benchmark tracer wraps
    it."""
    _check_nome(spec.q)
    numerator, denominator = tuple(spec.numerator), tuple(spec.denominator)
    plain = any(is_extended(v) for v in (spec.q, spec.argument) + numerator + denominator)
    terms = series_terms(numerator, denominator, PowerTable(spec.q), spec.argument,
                         spec.truncation)
    # The first term is exactly 1, so it starts the sums as they are.
    total = terms[0]
    comp = total - total
    magnitude = abs(total)
    for term in terms[1:]:
        magnitude = magnitude + abs(term)
        if plain:
            total = total + term
        else:
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
    return total, magnitude
