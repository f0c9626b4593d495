"""Three of the hottest mpf loops of the package, run on mpmath's raw ``_mpf_``
tuples: the recurrence, the explicit expansion's dot product of a
coefficient row with a basis row, and the Gram dot products.  (The fourth,
the Richardson table, whose callers pass only mpf values, is written this
way in :func:`qortho.connections.richardson`.)

Each function here is one operator loop of the package written with the
:mod:`mpmath.libmp` call that the mpf operator itself makes, with the same
(prec, rounding) pair the operator reads from its left operand's context:
``a * b`` is ``mpf_mul(a, b)``, ``a - b`` is ``mpf_sub(a, b)``, ``a / b`` is
``mpf_div(a, b)``, ``a + b`` is ``mpf_add(a, b)``, ``abs(a)`` is
``mpf_abs(a)``, and ``1 - a`` is ``mpf_sub(fone, a)``, which is what
``__rsub__`` does with an int.  So every result is the operator loop's bit
for bit; what goes is the operator's type dispatch and the ``mpf`` it builds
around every intermediate.  A result is wrapped into an ``mpf`` once, where
the caller reads it.

Each caller takes this path only when :func:`~qortho.scalars.all_mpf` holds
for every operand its loop reads, and keeps its operator loop for float,
complex, mpc and mixed inputs.  It imports this module only then, so a
binary64 run never loads it.  mpmath is imported inside the functions, as
everywhere in the package; the libmp functions are bound to locals once per
call.
"""

from __future__ import annotations

__all__ = ["monic_values", "series_sum", "dot"]


def monic_values(b, u, x, one) -> list:
    """:func:`qortho.recurrence.monic_values` for mpf ``x``, ``b`` and ``u[1:]``,
    headed by the P_0 = ``one`` that function chose."""
    import mpmath
    lib = mpmath.libmp
    mpf_mul, mpf_sub = lib.mpf_mul, lib.mpf_sub
    mpf, new, (prec, rnd) = x._ctxdata
    xv = x._mpf_
    raw = []
    steps = zip(b, u)
    for b0, _ in steps:
        prev = cur = mpf_sub(xv, b0._mpf_, prec, rnd)
        raw.append(cur)
        for b1, u1 in steps:
            cur = mpf_sub(mpf_mul(mpf_sub(xv, b1._mpf_, prec, rnd), cur, prec, rnd),
                          u1._mpf_, prec, rnd)
            raw.append(cur)
            for bm, um in steps:
                cur, prev = mpf_sub(
                    mpf_mul(mpf_sub(xv, bm._mpf_, prec, rnd), cur, prec, rnd),
                    mpf_mul(um._mpf_, prev, prec, rnd), prec, rnd), cur
                raw.append(cur)
    out = [one]
    for v in raw:
        value = new(mpf)
        value._mpf_ = v
        out.append(value)
    return out


def series_sum(row, basis) -> tuple:
    """:func:`qortho.para_racah._explicit_value` of an mpf coefficient row
    [(k, c_k)] at an mpf basis row: (sum c_k basis[k], sum |c_k basis[k]|),
    each added in the row's order from its first product."""
    import mpmath
    lib = mpmath.libmp
    mpf_abs, mpf_add, mpf_mul = lib.mpf_abs, lib.mpf_add, lib.mpf_mul
    mpf, new, (prec, rnd) = basis[0]._ctxdata
    (k, c), *rest = row
    total = mpf_mul(c._mpf_, basis[k]._mpf_, prec, rnd)
    magnitude = mpf_abs(total, prec, rnd)
    for k, c in rest:
        term = mpf_mul(c._mpf_, basis[k]._mpf_, prec, rnd)
        total = mpf_add(total, term, prec, rnd)
        magnitude = mpf_add(magnitude, mpf_abs(term, prec, rnd), prec, rnd)
    value, scale = new(mpf), new(mpf)
    value._mpf_, scale._mpf_ = total, magnitude
    return value, scale


def dot(xs, ys):
    """``sum(map(operator.mul, xs, ys))`` of two mpf sequences of one
    non-zero length.  The builtin starts from the int 0, and
    ``0 + first`` is the first product's ``__radd__``: mpf_add(first, 0)."""
    import mpmath
    lib = mpmath.libmp
    fzero, mpf_add, mpf_mul = lib.fzero, lib.mpf_add, lib.mpf_mul
    mpf, new, (prec, rnd) = xs[0]._ctxdata
    products = [mpf_mul(x._mpf_, y._mpf_, prec, rnd) for x, y in zip(xs, ys)]
    total = mpf_add(products[0], fzero, prec, rnd)
    for p in products[1:]:
        total = mpf_add(total, p, prec, rnd)
    value = new(mpf)
    value._mpf_ = total
    return value
