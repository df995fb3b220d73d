"""Numerical verification toolkit for Haar-functional closed forms on quantum SU(2).

Layered modules:

    qseries     q-Pochhammer symbols, basic hypergeometric series, very-well-
                poised 8W7, Jackson q-integrals
    orthopoly   continuous q-Hermite, q-Charlier, Al-Salam-Chihara and
                Askey-Wilson families with their measures and Poisson kernels
    spectral    three-term recurrences as Jacobi operators, their Gauss
                rules, truncation policy
    qsu2rep     truncated generator representations, the weighted phase-trace
                Haar functional, spherical-type elements and their eigenbases
    haarverify  dual-route verification of the closed-form expressions and
                the supporting identities
    cli         configuration, dispatch and machine-readable reports

The package exports every name in the ``__all__`` of the modules above but
``cli``.  The truncation constants are read as ``qseries.TAIL_TOL`` and
``qseries.MAX_TERMS``.
"""

from .errors import *  # noqa: F403
from .qseries import *  # noqa: F403
from .spectral import *  # noqa: F403
from .orthopoly import *  # noqa: F403
from .qsu2rep import *  # noqa: F403
from .haarverify import *  # noqa: F403
from . import errors, haarverify, orthopoly, qseries, qsu2rep, spectral

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *qseries.__all__,
    *spectral.__all__,
    *orthopoly.__all__,
    *qsu2rep.__all__,
    *haarverify.__all__,
    "__version__",
]
