"""Backend-oracle adapter over the unified engine registry.

The repository carries four executable semantics for the same network
language — the interpreted big-int walk, the compiled int64 batch
engine, the operational event-driven simulator, and the gate-level GRL
circuit model.  They live in
:mod:`repro.runtime.engines` and register with
:data:`repro.runtime.ENGINES` — the exact objects the serving stack
dispatches through.  This module keeps the historical conformance
surface (``register_oracle`` / ``oracle_names`` / ``default_oracles`` /
``run_backends`` and the ``*Oracle`` class names) as a thin adapter, so
differential testing exercises the production dispatch path rather than
a parallel registry.

Comparison semantics
--------------------
Oracles report *canonical* outputs: every finite time strictly above
:data:`~repro.network.compile_plan.MAX_FINITE` is saturated to ``∞``
before any diff.  This is deliberate — the interpreted evaluator computes
with arbitrary-precision integers while the compiled engine saturates
``inc`` chains at the int64 sentinel, so beyond ``2**63 - 1`` the two
*intentionally* differ in raw value.  The observable contract all
backends share is equality **up to sentinel saturation**, and that is
what :func:`run_backends` and the conformance harness check.

Partiality
----------
Not every backend can run every case.  The GRL oracle compiles to a CMOS
netlist (zero-source min/max constants have no gate realization) and
simulates cycle-by-cycle, so it declares structural limits via
``supports_network`` and per-volley limits via ``supports_volley``.  The
registry never silently drops a backend — skips carry a human-readable
reason into the report.

Adding a backend
----------------
Subclass :class:`BackendOracle` (=
:class:`~repro.runtime.engines.BackendEngine`), implement ``run`` (and
the ``supports_*`` hooks if partial), then decorate with
:func:`register_oracle`.  ``default_oracles()`` instantiates every
registered backend; the conformance CLI picks it up automatically.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Optional

from ..core.value import INF, Infinity, Time
from ..ir.passes import optimize_program
from ..ir.program import Program, ProgramLike, ensure_program
from ..network.compile_plan import MAX_FINITE
from ..runtime.engines import (
    BackendEngine,
    CompiledBatchEngine,
    Engine,
    EngineCapabilities,
    EventDrivenEngine,
    GRLCircuitEngine,
    InterpretedEngine,
    Outputs,
    Volley,
)
from ..runtime.registry import ENGINES

__all__ = [
    "BackendOracle",
    "BackendRun",
    "CompiledBatchOracle",
    "Engine",
    "EngineCapabilities",
    "EventDrivenOracle",
    "GRLCircuitOracle",
    "InterpretedOracle",
    "Outputs",
    "Volley",
    "default_oracles",
    "oracle_names",
    "register_oracle",
    "run_backends",
    "saturate",
    "saturate_outputs",
]

#: Historical names — the oracle classes ARE the runtime engines, so a
#: conformance-registered backend and a serving-dispatched backend are
#: one object with one behaviour.
BackendOracle = BackendEngine
InterpretedOracle = InterpretedEngine
CompiledBatchOracle = CompiledBatchEngine
EventDrivenOracle = EventDrivenEngine
GRLCircuitOracle = GRLCircuitEngine


def saturate(value: Time) -> Time:
    """Canonicalize one time into sentinel-saturated semantics."""
    if isinstance(value, Infinity):
        return INF
    return INF if value > MAX_FINITE else int(value)


def saturate_outputs(outputs: Sequence[Time]) -> Outputs:
    """Canonicalize a whole output tuple (the diffable form)."""
    return tuple(saturate(v) for v in outputs)


# ---------------------------------------------------------------------------
# Registry adapter
# ---------------------------------------------------------------------------

def register_oracle(
    factory: Callable[[], BackendOracle]
) -> Callable[[], BackendOracle]:
    """Register a backend factory (usable as a class decorator).

    Forwards to :meth:`repro.runtime.EngineRegistry.register` on the
    process-wide :data:`~repro.runtime.ENGINES` registry: the factory's
    product must carry a unique ``name``; registration order is
    preserved and becomes the report column order.
    """
    return ENGINES.register(factory)


def oracle_names() -> list[str]:
    """Registered backend names, in registration order."""
    return ENGINES.names()


def default_oracles(*, include_grl: bool = True) -> list[BackendOracle]:
    """Fresh instances of every registered backend.

    ``include_grl=False`` drops cycle-accurate gate-level models — the
    filter keys on the ``cycle_accurate`` capability, not the name —
    useful when the sweep is dominated by cycle simulation time.
    """
    return ENGINES.create_all(include_cycle_accurate=include_grl)


# ---------------------------------------------------------------------------
# Uniform batch runner
# ---------------------------------------------------------------------------

@dataclass
class BackendRun:
    """Canonicalized outputs of several backends over one volley batch.

    ``results[name][i]`` is the sentinel-saturated output tuple of
    backend *name* on volley *i*, or ``None`` when that backend skipped
    the volley; backends skipped wholesale appear in ``skipped`` with
    their reason instead.  ``program`` is the exact
    :class:`~repro.ir.program.Program` every backend consumed when the
    run went through the shared-lowering path (``optimize=True``), else
    ``None``; its provenance map relates the optimized trace back to the
    original node ids.
    """

    volleys: list[Volley]
    results: dict[str, list[Optional[Outputs]]] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    program: Optional[Program] = None

    def names_for(self, index: int) -> list[str]:
        """Backends that produced an output for volley *index*."""
        return [n for n, rows in self.results.items() if rows[index] is not None]


def run_backends(
    network: ProgramLike,
    volleys: Sequence[Volley],
    *,
    params: Optional[Mapping[str, Time]] = None,
    oracles: Optional[Sequence[Engine]] = None,
    optimize: bool = False,
) -> BackendRun:
    """Run every backend over *volleys*, canonicalizing all outputs.

    Backends that cannot run the network are recorded in ``skipped``;
    backends that cannot run an individual volley leave ``None`` in that
    row.  Raw outputs are saturated at the int64 sentinel so the caller
    can compare tuples directly.

    With ``optimize=True`` the source is lowered and run through the
    default IR pass pipeline *once*, and the resulting
    :class:`~repro.ir.program.Program` (recorded on the returned
    ``BackendRun``) is shared by every backend — so the compiled plan
    cache, keyed by IR fingerprint, compiles it exactly once too.  Leave
    it ``False`` for fault injection: :class:`FaultedOracle` network
    transforms operate on the raw ``Network``.
    """
    oracles = list(oracles) if oracles is not None else default_oracles()
    shared_program: Optional[Program] = None
    if optimize:
        shared_program, _report = optimize_program(ensure_program(network))
        network = shared_program
    volleys = [tuple(v) for v in volleys]
    run = BackendRun(volleys=volleys, program=shared_program)
    for oracle in oracles:
        reason = oracle.supports_network(network)
        if reason is not None:
            run.skipped[oracle.name] = reason
            continue
        mask = [oracle.supports_volley(v) for v in volleys]
        subset = [v for v, ok in zip(volleys, mask) if ok]
        outputs = oracle.run(network, subset, params=params) if subset else []
        if len(outputs) != len(subset):
            raise RuntimeError(
                f"oracle {oracle.name!r} returned {len(outputs)} rows for "
                f"{len(subset)} volleys"
            )
        rows: list[Optional[Outputs]] = []
        it = iter(outputs)
        for ok in mask:
            rows.append(saturate_outputs(next(it)) if ok else None)
        run.results[oracle.name] = rows
    return run
