"""The Engine contract and the four stock backends behind it.

The paper's central claim is that one s-t algebra admits many
interchangeable implementations; the repo carries four — the
interpreted big-int walk, the compiled int64 batch engine, the
event-driven simulator, and the gate-level GRL circuit model.  Every
implementation is a :class:`BackendEngine` carrying

* ``name`` — the registry/report label (``"compiled-batch"``, …),
* ``key`` — the short serving key (``"int64"``) that the CLI
  ``--engine`` flags and worker warmup ledgers use,
* ``capabilities`` — a static :class:`EngineCapabilities` descriptor
  (batchable? zero-source constants? cycle-accurate?) that replaces
  name-based special-casing, and
* ``available()`` — a runtime probe (``None`` = usable here, else the
  reason), checked when a policy pins an engine.

Batchable engines additionally expose the serving surface —
``evaluate(program, matrix)`` over sentinel-int64 batches and
``warm(program)`` precompilation — so worker processes dispatch through
the same objects the conformance harness diffs.
:mod:`repro.testing.oracles` re-exports these classes under their
historical ``*Oracle`` names.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass
from typing import Any, Optional, Protocol, runtime_checkable

from ..core.value import Infinity, Time
from ..ir.program import ProgramLike, ensure_program
from ..native import NUMBA_AVAILABLE, native_mode
from ..network.compile_plan import compile_plan, decode_matrix, evaluate_batch
from ..network.events import EventSimulator
from ..network.simulator import evaluate_all_interpreted
from ..obs.trace import RecordingSink, TraceEvent

Volley = tuple[Time, ...]
Outputs = tuple[Time, ...]


@runtime_checkable
class Engine(Protocol):
    """The structural contract every backend engine satisfies.

    One executable semantics of the s-t language, consuming a
    :data:`~repro.ir.program.ProgramLike` (a ``Network`` or a lowered
    ``Program``) — the dispatch surface the conformance harness and the
    serving stack are written against.
    """

    name: str

    def supports_network(self, network: ProgramLike) -> Optional[str]:
        """``None`` if the engine can run *network*, else a skip reason."""
        ...

    def supports_volley(self, volley: Volley) -> bool:
        """True if the engine can run this particular volley."""
        ...

    def run(
        self,
        network: ProgramLike,
        volleys: Sequence[Volley],
        params: Optional[Mapping[str, Time]] = None,
    ) -> list[Outputs]:
        """Raw output tuples (output-name order) per volley."""
        ...

    def trace(
        self,
        network: ProgramLike,
        volley: Volley,
        params: Optional[Mapping[str, Time]] = None,
    ) -> Optional[list[TraceEvent]]:
        """Canonical spike trace of one volley, or ``None`` if untraceable."""
        ...


@dataclass(frozen=True)
class EngineCapabilities:
    """What one backend can do, declared statically.

    The registry and serving stack branch on these fields instead of on
    engine names: serving wants ``batchable``, conformance filters the
    slow gate-level model via ``cycle_accurate``, and skip reporting
    leans on ``supports_zero_source_const``.
    """

    #: Accepts whole sentinel-int64 volley matrices via ``evaluate``.
    batchable: bool = False
    #: Can realize zero-source min/max lattice constants.
    supports_zero_source_const: bool = True
    #: Simulates gate-by-gate cycles (orders of magnitude slower).
    cycle_accurate: bool = False


class BackendEngine:
    """One executable semantics of the network language.

    The stock implementation of the :class:`Engine` protocol (the class
    conformance code historically imported as ``BackendOracle``).
    Subclasses implement :meth:`run`; partial backends override
    :meth:`supports_network` / :meth:`supports_volley`; batchable
    backends override :meth:`evaluate` / :meth:`warm`.  ``run`` returns
    *raw* outputs — canonicalization (sentinel saturation) is applied
    uniformly by the harness, never per backend.
    """

    #: Registry key and report label; subclasses must override.
    name: str = "abstract"
    #: Short serving key (CLI flags, warmup ledgers); defaults to name.
    key: str = "abstract"
    #: Static capability descriptor; subclasses override as needed.
    capabilities: EngineCapabilities = EngineCapabilities()

    def available(self) -> Optional[str]:
        """``None`` when the engine can run in this process, else why not."""
        return None

    def supports_network(self, network: ProgramLike) -> Optional[str]:
        """``None`` if the backend can run *network*, else a skip reason."""
        return None

    def supports_volley(self, volley: Volley) -> bool:
        """True if the backend can run this particular volley."""
        return True

    def run(
        self,
        network: ProgramLike,
        volleys: Sequence[Volley],
        params: Optional[Mapping[str, Time]] = None,
    ) -> list[Outputs]:
        """Raw output tuples (``network.output_names`` order) per volley."""
        raise NotImplementedError

    def trace(
        self,
        network: ProgramLike,
        volley: Volley,
        params: Optional[Mapping[str, Time]] = None,
    ) -> Optional[list[TraceEvent]]:
        """The canonical spike trace of one volley, or ``None``.

        ``None`` means the backend cannot trace this case (unsupported
        network/volley, or no tracing support at all — the base).  A
        returned trace is already canonical (sorted, sentinel-saturated),
        so two backends that agree on fire times return *equal* lists.
        """
        return None

    # -- batch serving surface ------------------------------------------

    def evaluate(
        self,
        network: ProgramLike,
        inputs: Any,
        *,
        params: Optional[Mapping[str, Time]] = None,
        sink: Any = None,
    ) -> Any:
        """Evaluate a sentinel-int64 batch (batchable engines only)."""
        raise NotImplementedError(f"engine {self.name!r} is not batchable")

    def warm(self, network: ProgramLike) -> None:
        """Precompile *network* so first real traffic pays nothing."""
        return None

    def describe(self) -> dict:
        """A JSON-able capability record for CLI/registry listings."""
        return {
            "name": self.name,
            "key": self.key,
            "available": self.available(),
            "capabilities": asdict(self.capabilities),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<oracle {self.name}>"


# ---------------------------------------------------------------------------
# The four stock backends
# ---------------------------------------------------------------------------

class InterpretedEngine(BackendEngine):
    """The pure-Python reference walk (arbitrary-precision ints)."""

    name = "interpreted"
    key = "interpreted"

    def run(self, network, volleys, params=None):
        names = network.input_names
        out_ids = list(network.outputs.values())
        results: list[Outputs] = []
        for volley in volleys:
            values = evaluate_all_interpreted(
                network, dict(zip(names, volley)), params=params
            )
            results.append(tuple(values[nid] for nid in out_ids))
        return results

    def trace(self, network, volley, params=None):
        sink = RecordingSink()
        evaluate_all_interpreted(
            network,
            dict(zip(network.input_names, volley)),
            params=params,
            sink=sink,
        )
        return sink.canonical()


class CompiledBatchEngine(BackendEngine):
    """The compiled int64 batch engine, one plan call per batch.

    Its executor (fused NumPy kernels or the Numba row interpreter)
    follows ``REPRO_NATIVE`` at run time, so one conformance invocation
    pins down whichever executor the environment selects — CI runs
    both.  Traces are emitted post-hoc from the complete value vector.
    """

    name = "compiled-batch"
    key = "int64"
    capabilities = EngineCapabilities(batchable=True)

    def run(self, network, volleys, params=None):
        matrix = evaluate_batch(network, list(volleys), params=params)
        return [tuple(row) for row in decode_matrix(matrix)]

    def trace(self, network, volley, params=None):
        sink = RecordingSink()
        evaluate_batch(network, [tuple(volley)], params=params, sink=sink)
        return sink.canonical()

    def evaluate(self, network, inputs, *, params=None, sink=None):
        return evaluate_batch(network, inputs, params=params, sink=sink)

    def warm(self, network):
        compile_plan(network).warm()

    def describe(self) -> dict:
        record = super().describe()
        record["mode"] = native_mode()
        record["numba_available"] = NUMBA_AVAILABLE
        return record


class EventDrivenEngine(BackendEngine):
    """The operational simulator: spikes as discrete scheduled events."""

    name = "event-driven"
    key = "event"

    def run(self, network, volleys, params=None):
        simulator = EventSimulator(network)
        names = network.input_names
        out_names = network.output_names
        results: list[Outputs] = []
        for volley in volleys:
            outcome = simulator.run(dict(zip(names, volley)), params=params)
            results.append(tuple(outcome.outputs[n] for n in out_names))
        return results

    def trace(self, network, volley, params=None):
        sink = RecordingSink()
        EventSimulator(network).run(
            dict(zip(network.input_names, volley)), params=params, sink=sink
        )
        return sink.canonical()


class GRLCircuitEngine(BackendEngine):
    """The cycle-accurate CMOS model, where a gate netlist exists.

    Partial on two axes: zero-source min/max constants have no gate
    realization, and simulation cost is ``O(cycles × gates)`` with
    ``cycles ≈ latest finite spike + flip-flop count``, so both the
    netlist size and the volley's latest spike are budgeted.
    """

    name = "grl-circuit"
    key = "grl"
    capabilities = EngineCapabilities(
        supports_zero_source_const=False, cycle_accurate=True
    )

    def __init__(self, *, max_time: int = 32, max_gates: int = 400):
        self.max_time = max_time
        self.max_gates = max_gates

    def supports_network(self, network: ProgramLike) -> Optional[str]:
        program = ensure_program(network)
        if program.const_ids:
            # The IR declares which nodes are lattice-identity constants;
            # this oracle no longer pattern-matches them itself.
            node = program.nodes[program.const_ids[0]]
            return (
                f"zero-source {node.kind} (node {node.id}) has no "
                "CMOS gate realization"
            )
        # DFF chains dominate the netlist: one flip-flop per inc unit.
        gates = len(program.nodes) + sum(
            n.amount - 1 for n in program.nodes if n.kind == "inc"
        )
        if gates > self.max_gates:
            return f"netlist too large for cycle simulation ({gates} gates)"
        return None

    def supports_volley(self, volley: Volley) -> bool:
        return all(
            isinstance(v, Infinity) or v <= self.max_time for v in volley
        )

    def run(self, network, volleys, params=None):
        from ..racelogic.compile import GRLExecutor

        executor = GRLExecutor(network)
        names = network.input_names
        out_names = network.output_names
        results: list[Outputs] = []
        for volley in volleys:
            outputs = executor.outputs(
                dict(zip(names, volley)), params=params
            )
            results.append(tuple(outputs[n] for n in out_names))
        return results

    def trace(self, network, volley, params=None):
        from ..racelogic.compile import GRLExecutor

        volley = tuple(volley)
        if self.supports_network(network) is not None:
            return None
        if not self.supports_volley(volley):
            return None
        sink = RecordingSink()
        GRLExecutor(network).run(
            dict(zip(network.input_names, volley)), params=params, sink=sink
        )
        return sink.canonical()
