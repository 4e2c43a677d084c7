"""The four stock backends behind one contract, in one fixed order.

The paper's central claim is that one s-t algebra admits many
interchangeable implementations; the repo carries four — the
interpreted big-int walk, the compiled int64 batch engine, the
event-driven simulator, and the gate-level GRL circuit model.  Each is a
:class:`BackendEngine` carrying a report ``name`` and a
``cycle_accurate`` flag (the slow gate-level model sets it, so sweeps
can leave it out).  :data:`ENGINES` lists the four classes in the pinned
report order; differential testing instantiates fresh engines from it.
Serving does not go through these objects: the serving stack calls the
batch engine (:func:`~repro.network.compile_plan.evaluate_batch`)
directly.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Optional

from ..core.value import Infinity, Time
from ..ir.program import ProgramLike, ensure_program
from ..ir.sorters import group_sorters
from ..network.compile_plan import decode_matrix, evaluate_batch
from ..network.events import EventSimulator
from ..network.simulator import evaluate_all_interpreted
from ..obs.trace import RecordingSink, TraceEvent

Volley = tuple[Time, ...]
Outputs = tuple[Time, ...]


class BackendEngine:
    """One executable semantics of the network language.

    Subclasses implement :meth:`run`; partial backends override
    :meth:`supports_network` / :meth:`supports_volley`.  ``run`` returns
    *raw* outputs — canonicalization (sentinel saturation) is applied
    uniformly by the harness, never per backend.
    """

    #: Report label; subclasses must override.
    name: str = "abstract"
    #: Simulates gate-by-gate cycles (orders of magnitude slower).
    cycle_accurate: bool = False

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

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<engine {self.name}>"


# ---------------------------------------------------------------------------
# The four stock backends
# ---------------------------------------------------------------------------

class InterpretedEngine(BackendEngine):
    """The pure-Python reference walk (arbitrary-precision ints)."""

    name = "interpreted"

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

    The plan runs as fused NumPy kernels, one per (level, kind), and it
    runs the program the serving workers run: every recognized sorting
    network lowered to rank rows (:func:`repro.ir.sorters.group_sorters`)
    and executed as one sort kernel, while the other three backends
    evaluate its comparators.  Traces come from the comparator-level
    plan, post-hoc from the complete value vector.
    """

    name = "compiled-batch"

    def run(self, network, volleys, params=None):
        matrix = evaluate_batch(
            group_sorters(network), list(volleys), params=params
        )
        return [tuple(row) for row in decode_matrix(matrix)]

    def trace(self, network, volley, params=None):
        sink = RecordingSink()
        evaluate_batch(network, [tuple(volley)], params=params, sink=sink)
        return sink.canonical()


class EventDrivenEngine(BackendEngine):
    """The operational simulator: spikes as discrete scheduled events."""

    name = "event-driven"

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
    cycle_accurate = True

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


#: Every engine class, in the pinned conformance report order.
ENGINES: tuple[type[BackendEngine], ...] = (
    InterpretedEngine,
    CompiledBatchEngine,
    EventDrivenEngine,
    GRLCircuitEngine,
)
