"""qortho: orthogonal polynomial families on biexponential bi-lattices.

The package builds tridiagonal (Jacobi) data, explicit hypergeometric
evaluations, orthogonality lattices and weights for the q-para-Racah family
obtained by singular truncation of the Askey-Wilson polynomials, together
with the q-para-Krawtchouk specialization, q-Racah and dual-Hahn reductions,
and the spectral verification tooling around them.  The Askey-Wilson parent
family, whose truncation the tests check, is a test oracle
(``tests/oracles/askey_wilson.py``), not part of the package.
"""

from .para_krawtchouk import ParaKrawtchoukFamily
from .para_racah import ParaRacahFamily
from .qseries import SingularSeriesError
from .recurrence import DegenerateFamilyError, LatticeWeights, TridiagonalSystem

__version__ = "0.1.0"

__all__ = [
    "ParaKrawtchoukFamily",
    "ParaRacahFamily",
    "TridiagonalSystem",
    "LatticeWeights",
    "SingularSeriesError",
    "DegenerateFamilyError",
    "__version__",
]
