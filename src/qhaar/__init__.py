"""Numerical verification toolkit for Haar-functional closed forms on quantum SU(2).

Layered modules:

    qseries     q-Pochhammer symbols, basic hypergeometric series, very-well-
                poised 8W7, Jackson q-integrals
    orthopoly   continuous q-Hermite, q-Charlier, Al-Salam-Chihara and
                Askey-Wilson families with their measures and Poisson kernels
    spectral    three-term recurrences as Jacobi operators, their moments
                e_0^T J^k e_0, truncation policy
    qsu2rep     truncated generator representations, the weighted phase-trace
                Haar functional, spherical-type elements and their eigenbases
    haarverify  dual-route verification of the closed-form expressions and
                the supporting identities
    cli         configuration, dispatch and machine-readable reports

The package exports every name in the ``__all__`` of the modules above but
``cli``.  The truncation constants are read as ``qseries.TAIL_TOL`` and
``qseries.MAX_TERMS``.

``import qhaar`` loads none of these modules, nor numpy (PEP 562).  The
first name looked up that the package does not hold yet loads the six
library modules and binds every name of their ``__all__``, and ``__all__``
itself, into the package; from then on each is a plain attribute.  A
submodule's name loads that submodule alone, so ``python -m qhaar``
loads only what its command runs.  ``THEOREMS``, the targets of
``haarverify.verify``, is held here from the start, so that ``cli`` can
name them without loading ``haarverify``.
"""

import importlib

__version__ = "0.1.0"

# the targets of haarverify.verify, which re-exports them; written here so
# that cli's parser names them without loading haarverify
THEOREMS = ("thm4", "thm5", "thm6", "gamma")

_LIBRARY = ("errors", "qseries", "spectral", "orthopoly", "qsu2rep", "haarverify")


def __getattr__(name: str):
    # called only for a name the package does not hold yet
    if name in _LIBRARY or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    namespace = globals()
    if "__all__" not in namespace:
        exported = []
        for submodule in _LIBRARY:
            module = importlib.import_module(f"{__name__}.{submodule}")
            namespace.update((attr, getattr(module, attr)) for attr in module.__all__)
            exported += module.__all__
        namespace["__all__"] = [*exported, "__version__"]
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    __getattr__("__all__")
    return sorted(globals())
