"""qortho: orthogonal polynomial families on biexponential bi-lattices.

The package builds tridiagonal (Jacobi) data, explicit hypergeometric
evaluations, orthogonality lattices and weights for the q-para-Racah family
obtained by singular truncation of the Askey-Wilson polynomials, together
with the q-para-Krawtchouk specialization, q-Racah and dual-Hahn reductions,
and the spectral verification tooling around them.
"""

from .askey_wilson import AskeyWilsonParams
from .para_krawtchouk import ParaKrawtchoukFamily
from .para_racah import DegenerateFamilyError, LatticeWeights, ParaRacahFamily
from .qseries import SeriesSpec, SingularSeriesError
from .recurrence import TridiagonalSystem

__version__ = "0.1.0"

__all__ = [
    "AskeyWilsonParams",
    "ParaKrawtchoukFamily",
    "ParaRacahFamily",
    "TridiagonalSystem",
    "LatticeWeights",
    "SeriesSpec",
    "SingularSeriesError",
    "DegenerateFamilyError",
    "__version__",
]
