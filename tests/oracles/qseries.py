"""The (a z, a/z; q)_k basis factor of the Askey-Wilson series."""

from __future__ import annotations

from qortho.qseries import qpochhammer

__all__ = ["phi_basis"]


def phi_basis(a, z, q, k):
    """The degree-k basis factor (a z; q)_k (a/z; q)_k at x = (z + 1/z)/2."""
    if z == 0:
        raise ValueError("z must be nonzero")
    return qpochhammer(a * z, q, k) * qpochhammer(a / z, q, k)
