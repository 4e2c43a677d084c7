"""Run several backends over one batch and compare them canonically.

The repository carries four executable semantics for the same network
language — the interpreted big-int walk, the compiled int64 batch
engine, the operational event-driven simulator, and the gate-level GRL
circuit model.  They live in :mod:`repro.runtime.engines`, listed in
report order by :data:`repro.runtime.engines.ENGINES`.  This module runs
any list of them over one volley batch (:func:`run_backends`) and owns
the comparison semantics.

Comparison semantics
--------------------
Backends report *canonical* outputs: every finite time strictly above
:data:`~repro.network.compile_plan.MAX_FINITE` is saturated to ``∞``
before any diff.  This is deliberate — the interpreted evaluator computes
with arbitrary-precision integers while the compiled engine saturates
``inc`` chains at the int64 sentinel, so beyond ``2**63 - 1`` the two
*intentionally* differ in raw value.  The observable contract all
backends share is equality **up to sentinel saturation**, and that is
what :func:`run_backends` and the conformance harness check.

Partiality
----------
Not every backend can run every network.  The GRL engine compiles to a
CMOS netlist: zero-source min/max constants have no gate realization,
and a netlist too large to build (an ``inc(+k)`` is k flip-flops) is
refused, so it declares these limits via ``supports_network``.  A
backend is never silently dropped — skips carry a human-readable reason
into the report.  Whatever network a backend accepts, it runs on every
volley: the GRL simulator visits only the cycles in which a wire
switches, so a near-sentinel volley costs what any other does.

Adding a backend
----------------
Subclass :class:`~repro.runtime.engines.BackendEngine`, implement
``run`` (and ``supports_network`` if partial), then append the class
to :data:`~repro.runtime.engines.ENGINES`; the conformance CLI picks it
up from there.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Optional

from ..core.value import INF, Infinity, Time
from ..ir.passes import optimize_program
from ..ir.sorters import group_sorters
from ..network.compile_plan import MAX_FINITE
from ..network.graph import Network
from ..runtime.engines import ENGINES, BackendEngine, Outputs, Volley

__all__ = [
    "BackendRun",
    "Outputs",
    "Volley",
    "run_backends",
    "saturate",
    "saturate_outputs",
]


def saturate(value: Time) -> Time:
    """Canonicalize one time into sentinel-saturated semantics."""
    if isinstance(value, Infinity):
        return INF
    return INF if value > MAX_FINITE else int(value)


def saturate_outputs(outputs: Sequence[Time]) -> Outputs:
    """Canonicalize a whole output tuple (the diffable form)."""
    return tuple(saturate(v) for v in outputs)


# ---------------------------------------------------------------------------
# Uniform batch runner
# ---------------------------------------------------------------------------

@dataclass
class BackendRun:
    """Canonicalized outputs of several backends over one volley batch.

    ``results[name][i]`` is the sentinel-saturated output tuple of
    backend *name* on volley *i*; backends that cannot run the network
    appear in ``skipped`` with their reason instead.  ``program`` is the exact
    :class:`~repro.network.graph.Network` every backend consumed when the
    run went through the served-program path (``optimize=True``), else
    ``None``; its provenance map relates the optimized trace back to the
    original node ids.
    """

    volleys: list[Volley]
    results: dict[str, list[Outputs]] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    program: Optional[Network] = None


def run_backends(
    network: Network,
    volleys: Sequence[Volley],
    *,
    params: Optional[Mapping[str, Time]] = None,
    oracles: Optional[Sequence[BackendEngine]] = None,
    optimize: bool = False,
) -> BackendRun:
    """Run every backend over *volleys*, canonicalizing all outputs.

    *oracles* defaults to one fresh instance of every class in
    :data:`~repro.runtime.engines.ENGINES`.  Backends that cannot run
    the network are recorded in ``skipped``.  Raw outputs are
    saturated at the int64 sentinel so the caller can compare tuples
    directly.

    With ``optimize=True`` every backend runs the program a serving
    worker loads, built *once*: the network with its sorters grouped
    into rank rows (:func:`~repro.ir.sorters.group_sorters`) and then
    optimized.  It is recorded on the returned ``BackendRun``.  Leave it
    ``False`` for fault injection: :class:`FaultedOracle` network
    transforms operate on the raw ``Network``.
    """
    if oracles is None:
        oracles = [engine() for engine in ENGINES]
    program: Optional[Network] = None
    if optimize:
        program, _report = optimize_program(group_sorters(network))
        network = program
    volleys = [tuple(v) for v in volleys]
    run = BackendRun(volleys=volleys, program=program)
    for oracle in oracles:
        reason = oracle.supports_network(network)
        if reason is not None:
            run.skipped[oracle.name] = reason
            continue
        outputs = oracle.run(network, volleys, params=params) if volleys else []
        if len(outputs) != len(volleys):
            raise RuntimeError(
                f"oracle {oracle.name!r} returned {len(outputs)} rows for "
                f"{len(volleys)} volleys"
            )
        run.results[oracle.name] = [saturate_outputs(row) for row in outputs]
    return run
