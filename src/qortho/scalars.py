"""Scalar plumbing shared by every numeric module.

All formulas in this package are written generically: a computation stays in
whatever scalar type the caller supplies.  Binary64 mode works on plain
Python float/complex, extended mode on mpmath mpf/mpc values created under an
``extended_precision`` context.  Only the handful of operations that need to
dispatch on the type live here.

mpmath is imported by the functions that create or operate on its values, so
a binary64 run never loads it.  Until something has imported mpmath no value
can be an mpmath scalar, and :func:`is_mp` answers False without loading it.
"""

from __future__ import annotations

import cmath
import math
import sys

DEFAULT_EXTENDED_DIGITS = 50


def extended_precision(digits: int = DEFAULT_EXTENDED_DIGITS):
    """Context manager setting the mpmath working precision in decimal digits."""
    import mpmath
    return mpmath.workdps(digits)


def is_mp(x) -> bool:
    """True for mpmath scalars (extended-precision mode)."""
    mpmath = sys.modules.get("mpmath")
    return mpmath is not None and isinstance(x, (mpmath.mpf, mpmath.mpc))


def all_mpf(*groups) -> bool:
    """True when every value in the iterables ``groups`` is an mpmath mpf:
    that type itself, not an mpc, a constant such as ``mpmath.pi`` or a
    float.  Answers False without loading mpmath, as :func:`is_mp` does."""
    mpmath = sys.modules.get("mpmath")
    if mpmath is None:
        return False
    mpf = mpmath.mpf
    return all(type(v) is mpf for group in groups for v in group)


def is_finite(x) -> bool:
    """Neither infinite nor NaN; an mpf is read without converting a float, and
    one beyond the double range is finite."""
    return sys.modules["mpmath"].isfinite(x) if is_mp(x) else -math.inf < x < math.inf


def working_precision(x):
    """mpmath's working precision for an mpmath scalar, None otherwise."""
    return sys.modules["mpmath"].mp.prec if is_mp(x) else None


def as_scalar(value, extended: bool = False):
    """Coerce a number or decimal string to the working scalar type.

    In extended mode strings are handed to mpmath directly so decimal input
    keeps full precision instead of round-tripping through binary64.
    """
    if extended:
        if is_mp(value):
            return value
        import mpmath
        return mpmath.mpf(value)
    return float(value)


def max_keep_nan(first, *rest):
    """max(first, *rest), but NaN when any value is NaN.

    The builtin keeps a NaN only in first place, so folding residuals with
    it would let a NaN residual read as a pass.  Ties keep the earlier value,
    as the builtin does.
    """
    out = first
    for v in rest:
        if out != out:
            break
        if not v <= out:
            out = v
    return out


def sqrt(x):
    """Square root staying in x's scalar family, complex for negative reals."""
    if is_mp(x):
        import mpmath
        return mpmath.sqrt(x)
    if isinstance(x, complex) or x < 0:
        return cmath.sqrt(x)
    return math.sqrt(x)


def format_scalar(x, digits: int) -> str:
    """Deterministic decimal rendering with a fixed number of significant digits."""
    if is_mp(x):
        import mpmath
        return mpmath.nstr(x, digits)
    return "%.*g" % (digits, x)
