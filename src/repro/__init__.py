"""repro — Space-Time Algebra: A Model for Neocortical Computation.

A full reimplementation of the computing model of J. E. Smith's ISCA 2018
paper: the space-time algebra over ``N0∞``, feedforward space-time
computing networks, constructive functional completeness (min/lt/inc),
temporal neural network components (SRM0 neurons via sorting networks,
micro-weight synapses, winner-take-all inhibition), STDP and tempotron
learning, temporal coding, and generalized race logic with a gate-level
digital simulator.

Subpackages are imported lazily, on first attribute access (PEP 562):
``import repro`` loads none of them, and ``python -m repro serve`` loads
only the modules serving uses.  ``from repro import network`` and
``repro.network`` work as before.  The ``core``, ``ir``, ``network``,
``neuron`` and ``obs`` packages resolve their own public names the same
way (:func:`_lazy`), so importing one of their modules loads only what
that module imports.

Quickstart::

    from repro.core import INF, NormalizedTable, synthesize
    from repro.network import evaluate_vector

    table = NormalizedTable({(0, 1, 2): 3, (1, 0, INF): 2, (2, 2, 0): 2})
    net = synthesize(table)
    evaluate_vector(net, (3, 4, 5))   # {'y': 6}
"""

import importlib
import sys
import types

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "apps",
    "coding",
    "core",
    "ir",
    "kernels",
    "learning",
    "network",
    "neuron",
    "obs",
    "racelogic",
    "runtime",
    "serve",
    "testing",
    "__version__",
]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _LazyPackage(types.ModuleType):
    """A package whose public names load on first access (:func:`_lazy`)."""

    def __setattr__(self, name: str, value) -> None:
        # Importing a submodule binds it on its package.  A submodule named
        # like one of the package's exports (``core.minimize``,
        # ``network.compile_plan``...) must not shadow that export.
        if not (
            isinstance(value, types.ModuleType)
            and name in self.__dict__.get("__all__", ())
        ):
            super().__setattr__(name, value)


def _lazy(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 hooks that import *package*'s public names on first access.

    *exports* maps each submodule to the names the package exports from
    it; ``"x as y"`` exports the submodule's ``x`` as ``y``.  Returns
    ``(__all__, __getattr__, __dir__)`` for the package to bind.
    """
    where: dict[str, tuple[str, str]] = {}
    for module, names in exports.items():
        for entry in names:
            attr, _, alias = entry.partition(" as ")
            where[alias or attr] = (module, attr)
    namespace = sys.modules[package]
    namespace.__class__ = _LazyPackage

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module, attr = where[name]
        value = getattr(importlib.import_module(f".{module}", package), attr)
        namespace.__dict__[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace.__dict__) | set(where))

    return list(where), __getattr__, __dir__
