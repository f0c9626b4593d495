"""The (a z, a/z; q)_k basis factor of the Askey-Wilson series, and the
value of a terminating series spelled out as a :class:`~qortho.qseries.SeriesSpec`."""

from __future__ import annotations

from qortho.qseries import SeriesSpec, _series_eval_with_magnitude, qpochhammer

__all__ = ["phi_basis", "terminating_series_eval"]


def phi_basis(a, z, q, k):
    """The degree-k basis factor (a z; q)_k (a/z; q)_k at x = (z + 1/z)/2."""
    if z == 0:
        raise ValueError("z must be nonzero")
    return qpochhammer(a * z, q, k) * qpochhammer(a / z, q, k)


def terminating_series_eval(spec: SeriesSpec):
    """Evaluate a terminating parameter-list series term by term."""
    return _series_eval_with_magnitude(spec)[0]
