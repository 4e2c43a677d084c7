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
only the ones serving uses.  ``from repro import network`` and
``repro.network`` work as before.

Quickstart::

    from repro.core import INF, NormalizedTable, synthesize
    from repro.network import evaluate_vector

    table = NormalizedTable({(0, 1, 2): 3, (1, 0, INF): 2, (2, 2, 0): 2})
    net = synthesize(table)
    evaluate_vector(net, (3, 4, 5))   # {'y': 6}
"""

import importlib

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
