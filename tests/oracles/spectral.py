"""All eigenvalues of a symmetric tridiagonal matrix in double precision, by
the eigenvalue-only implicit QL algorithm with Wilkinson shifts (Bowdler,
Martin, Reinsch and Wilkinson, Numer. Math. 11, 1968; EISPACK ``tql1``): the
reference the residual certificate of ``qortho.spectral`` is checked
against."""

from __future__ import annotations

import math

__all__ = ["spectrum"]

# QL sweeps allowed per eigenvalue; two or three are typical.
_MAX_SWEEPS = 30


def spectrum(jacobi) -> list:
    """All eigenvalues, ascending, by implicit QL, of the matrix given as its
    (diagonal, off-diagonal) pair; deterministic."""
    diagonal, offdiag = jacobi
    d = list(diagonal)
    e = list(offdiag) + [0.0]
    if not all(math.isfinite(v) for v in d + e):
        raise ValueError("the Jacobi matrix must have finite entries")
    n = len(d)
    for l in range(n):
        sweeps = 0
        while True:
            # The first negligible off-diagonal entry at or below row l
            # splits off the block d[l..end].
            end = l
            while end < n - 1:
                dd = abs(d[end]) + abs(d[end + 1])
                if abs(e[end]) + dd == dd:
                    break
                end += 1
            if end == l:
                break
            if sweeps == _MAX_SWEEPS:
                raise ArithmeticError("QL iteration did not converge")
            sweeps += 1
            # Wilkinson shift from the leading 2x2 block, then one implicit
            # QL sweep of plane rotations from the bottom of the block up.
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[end] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(end - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # Exact underflow: the block splits at i + 1.
                    d[i + 1] -= p
                    e[end] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[end] = 0.0
    return sorted(d)
