"""Scalar plumbing shared by every numeric module.

All formulas in this package are written generically: a computation stays in
whatever scalar type the caller supplies.  Binary64 mode works on plain
Python float/complex, extended mode on the standard library's
``decimal.Decimal`` values made under an ``extended_precision`` context, and
on :class:`ExtendedComplex` for a point off the real line.  Only the handful
of operations that need to dispatch on the type live here.

``decimal`` is imported by the functions that create Decimal values, so a
binary64 run never loads it.  Until something has imported it no value can
be a Decimal, and :func:`is_extended` answers False without loading it.
"""

from __future__ import annotations

import cmath
import math
import sys

DEFAULT_EXTENDED_DIGITS = 50

# The digits a Decimal context carries beyond the ones asked for.  Its unit
# roundoff is then 10^(-1-P)/2, below the 2^-round((P+1) log2 10) of mpmath's
# P decimal places, so P printed digits keep the accuracy they had there.
GUARD_DIGITS = 2


def extended_precision(digits: int = DEFAULT_EXTENDED_DIGITS):
    """Context manager for Decimal arithmetic at ``digits`` significant
    digits and GUARD_DIGITS more.  It traps an invalid operation, a division
    by zero, an overflow past 10^999999 and an underflow below 10^-999999,
    so no Decimal NaN, infinity or flushed zero comes out of arithmetic."""
    import decimal
    return decimal.localcontext(decimal.Context(
        prec=digits + GUARD_DIGITS, traps=[decimal.InvalidOperation, decimal.DivisionByZero,
                                           decimal.Overflow, decimal.Underflow]))


def is_extended(x) -> bool:
    """True for Decimal scalars (extended-precision mode)."""
    decimal = sys.modules.get("decimal")
    return decimal is not None and isinstance(x, decimal.Decimal)


def is_finite(x) -> bool:
    """Neither infinite nor NaN; a Decimal is read without converting it to a
    float, and one beyond the double range is finite."""
    return x.is_finite() if is_extended(x) else -math.inf < x < math.inf


def working_precision(x):
    """The significant digits of the Decimal context, guard digits included,
    for a Decimal; None otherwise."""
    return sys.modules["decimal"].getcontext().prec if is_extended(x) else None


def as_scalar(value, extended: bool = False):
    """Coerce a number or decimal string to the working scalar type.

    In extended mode a string becomes the Decimal it spells, exactly, so
    decimal input keeps every digit instead of round-tripping through
    binary64.  NaN holds no digit: it is the float NaN in either mode, so it
    meets the same parameter checks.
    """
    if extended:
        from decimal import Decimal
        try:
            x = Decimal(value)
        except ArithmeticError:  # the context traps a malformed string
            raise ValueError("could not convert string to Decimal: %r" % value) from None
        return float("nan") if x.is_nan() else x
    x = float(value)
    # A nonzero decimal beyond binary64 over- or underflows; inf and nan hold no digit.
    if (x == 0 or math.isinf(x)) and set(str(value).lower().partition("e")[0]) & set("123456789"):
        raise (OverflowError if x else ZeroDivisionError)("%s is outside the binary64 range" % value)
    return x


def to_extended(x):
    """``x`` as a Decimal, exactly: the one conversion by which a float
    enters a Decimal computation.  A complex number becomes the
    :class:`ExtendedComplex` of its parts'."""
    from decimal import Decimal
    if isinstance(x, (complex, ExtendedComplex)):
        return ExtendedComplex(Decimal(x.real), Decimal(x.imag))
    return Decimal(x)


class ExtendedComplex:
    """A complex number with Decimal parts, the extended counterpart of
    ``complex``, which Decimal lacks.  It meets a Decimal or an int as a
    Decimal does, and each operation rounds its parts in the current
    context: ``+z`` rounds both to the working digits and ``complex(z)`` to
    binary64."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __add__(self, other):
        return ExtendedComplex(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        return ExtendedComplex(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        return ExtendedComplex(other.real - self.real, other.imag - self.imag)

    def __mul__(self, other):
        if not isinstance(other, ExtendedComplex):
            return ExtendedComplex(self.real * other, self.imag * other)
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return ExtendedComplex(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, ExtendedComplex):
            return ExtendedComplex(self.real / other, self.imag / other)
        a, b, c, d = self.real, self.imag, other.real, other.imag
        den = c * c + d * d
        return ExtendedComplex((a * c + b * d) / den, (b * c - a * d) / den)

    def __rtruediv__(self, other):
        return ExtendedComplex(other, 0 * other) / self

    def __neg__(self):
        return ExtendedComplex(-self.real, -self.imag)

    def __pos__(self):
        return ExtendedComplex(+self.real, +self.imag)

    def __abs__(self):
        return (self.real * self.real + self.imag * self.imag).sqrt()

    def __eq__(self, other):
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        # As for complex, a zero imaginary part hashes as the real part it equals.
        return hash(self.real) + 1000003 * hash(self.imag)

    def __complex__(self):
        return complex(float(self.real), float(self.imag))

    def __repr__(self):
        return "ExtendedComplex(%r, %r)" % (self.real, self.imag)


def unit(like):
    """The scalar 1 in the type of ``like``: 1.0 for a float, a Decimal 1
    for a Decimal, where ``like ** 0`` is an invalid operation at 0."""
    return type(like)(1)


def typed_float(value: float, like):
    """The binary64 constant ``value`` in the scalar type of the real ``like``:
    the value of ``value * like ** 0``, bit for bit in binary64, but built
    from the constant's integer ratio (a power-of-two denominator), so a
    Decimal meets no float; a Decimal is ``value`` rounded once to the
    working digits."""
    num, den = value.as_integer_ratio()
    return unit(like) * num / den


def max_keep_nan(first, *rest):
    """max(first, *rest), but NaN when any value is NaN.

    The builtin keeps a NaN only in first place, so folding residuals with
    it would let a NaN residual read as a pass.  Ties keep the earlier value,
    as the builtin does.  A NaN is found by ``!=``, which a Decimal NaN
    answers without the invalid operation an ordering would signal.
    """
    out = first
    for v in rest:
        if out != out:
            break
        if v != v or not v <= out:
            out = v
    return out


def sqrt(x):
    """Square root staying in x's scalar family, complex for negative floats."""
    if is_extended(x):
        return x.sqrt()
    if isinstance(x, complex) or x < 0:
        return cmath.sqrt(x)
    return math.sqrt(x)


def format_scalar(x, digits: int) -> str:
    """Deterministic decimal rendering with a fixed number of significant
    digits.  A Decimal is rounded half up to ``digits`` and printed in the
    shape of ``mpmath.nstr``: trailing zeros stripped but one, positional
    for a leading-digit exponent e with min(-(digits // 3), -5) < e <
    digits (``3.0``, ``123456.0``, ``0.0000001``), ``1.0e+50`` beyond."""
    if not is_extended(x):
        return "%.*g" % (digits, x)
    if not x:
        return "0.0"
    import decimal
    rounded = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_UP).plus(x)
    sign, coefficient, exponent = rounded.as_tuple()
    text = "".join(map(str, coefficient)).rstrip("0")
    lead = exponent + len(coefficient) - 1
    minus = "-" if sign else ""
    if min(-(digits // 3), -5) < lead < digits:
        if lead < 0:
            return "%s0.%s%s" % (minus, "0" * (-lead - 1), text)
        whole, frac = text[:lead + 1], text[lead + 1:]
        return "%s%s.%s" % (minus, whole.ljust(lead + 1, "0"), frac or "0")
    return "%s%s.%se%s%d" % (minus, text[0], text[1:] or "0", "+" if lead >= 0 else "", lead)
