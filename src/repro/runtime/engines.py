"""The four stock backends behind one contract, in one fixed order.

The paper's central claim is that one s-t algebra admits many
interchangeable implementations; the repo carries four — the
interpreted big-int walk, the compiled int64 batch engine, the
event-driven simulator, and the gate-level GRL circuit model.  Each is a
:class:`BackendEngine` carrying a report ``name`` and a
``cycle_accurate`` label (set by the gate-level model; ``repro stats``
prints it).  Every engine takes the one graph type, a
:class:`~repro.network.graph.Network` — built, grouped into rank rows or
optimized — and runs it as it is.  :data:`ENGINES` lists the four
classes in the pinned report order; differential testing instantiates
fresh engines from it.
Serving does not go through these objects: the serving stack calls the
batch engine (:func:`~repro.network.compile_plan.evaluate_batch`)
directly.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Optional

from ..core.value import Time
from ..ir.sorters import _canonical, group_sorters
from ..network.compile_plan import (
    decode_matrix,
    evaluate_batch,
    evaluate_batch_all,
)
from ..network.events import EventSimulator
from ..network.graph import Network
from ..network.simulator import evaluate_all_interpreted
from ..obs.trace import TraceEvent, spike_trace

Volley = tuple[Time, ...]
Outputs = tuple[Time, ...]

#: The largest netlist the GRL engine builds: room for the 80-input
#: served column (29,255 gates), not for a delay of 2**62 flip-flops.
MAX_GATES = 40_000


class BackendEngine:
    """One executable semantics of the network language.

    Subclasses implement :meth:`run`; a partial backend overrides
    :meth:`supports_network`.  ``run`` returns
    *raw* outputs — canonicalization (sentinel saturation) is applied
    uniformly by the harness, never per backend.
    """

    #: Report label; subclasses must override.
    name: str = "abstract"
    #: Simulates the gate netlist cycle by cycle (a ``repro stats`` label).
    cycle_accurate: bool = False

    def supports_network(self, network: Network) -> Optional[str]:
        """``None`` if the backend can run *network*, else a skip reason."""
        return None

    def run(
        self,
        network: Network,
        volleys: Sequence[Volley],
        params: Optional[Mapping[str, Time]] = None,
    ) -> list[Outputs]:
        """Raw output tuples (``network.output_names`` order) per volley."""
        raise NotImplementedError

    def trace(
        self,
        network: Network,
        volley: Volley,
        params: Optional[Mapping[str, Time]] = None,
    ) -> Optional[list[TraceEvent]]:
        """The canonical spike trace of one volley, or ``None``.

        ``None`` means the backend cannot trace this case (an unsupported
        network, or no tracing support at all — the base).  A
        backend traces by running the volley to its per-node fire times
        and returning :func:`~repro.obs.trace.spike_trace` over them, so
        two backends that agree on fire times return *equal* lists.
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
        values = evaluate_all_interpreted(
            network, dict(zip(network.input_names, volley)), params=params
        )
        return spike_trace(network, values)


class CompiledBatchEngine(BackendEngine):
    """The compiled int64 batch engine, one plan call per batch.

    The plan runs as fused NumPy kernels, one per (level, kind).  It
    groups the sorters of what it is handed
    (:func:`repro.ir.sorters.group_sorters`, the identity on a grouped
    program) and runs each as one sort kernel, so a comparator-level
    program still diffs the recognizer against the other three backends'
    comparators.  Traces come from the value matrix of the program it
    is handed.
    """

    name = "compiled-batch"

    def run(self, network, volleys, params=None):
        matrix = evaluate_batch(
            group_sorters(network), list(volleys), params=params
        )
        return [tuple(row) for row in decode_matrix(matrix)]

    def trace(self, network, volley, params=None):
        values = evaluate_batch_all(network, [tuple(volley)], params=params)
        return spike_trace(network, values[0].tolist())


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
        outcome = EventSimulator(network).run(
            dict(zip(network.input_names, volley)), params=params
        )
        return spike_trace(network, outcome.fire_times)


class GRLCircuitEngine(BackendEngine):
    """The cycle-accurate CMOS model, where a gate netlist exists.

    Partial on one axis, the netlist: zero-source min/max constants have
    no gate realization, and an ``inc(+k)`` compiles to k flip-flops, so
    a netlist over :data:`MAX_GATES` (a near-sentinel delay, say) is
    refused before it is built.  The rank rows of one sorter count as
    the bitonic sorter they compile to.  Any volley runs: the simulator
    visits only the cycles in which something switches.
    """

    name = "grl-circuit"
    cycle_accurate = True

    def supports_network(self, network: Network) -> Optional[str]:
        if network.const_ids:
            # The IR declares which nodes are lattice-identity constants;
            # this oracle no longer pattern-matches them itself.
            node = network.nodes[network.const_ids[0]]
            return (
                f"zero-source {node.kind} (node {node.id}) has no "
                "CMOS gate realization"
            )
        # DFF chains dominate the netlist: one flip-flop per inc unit.
        gates = len(network.nodes) + sum(
            n.amount - 1 for n in network.nodes if n.kind == "inc"
        )
        lanes: tuple[int, ...] = ()
        for node_id in network.rank_ids:
            gates -= 1  # a rank row is a sorter output, not a gate
            if network.nodes[node_id].sources is not lanes:
                lanes = network.nodes[node_id].sources
                canon = _canonical("bitonic", len(lanes))
                gates += len(canon.kinds) if canon is not None else 0
        if gates > MAX_GATES:
            return f"netlist too large for cycle simulation ({gates} gates)"
        return None

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

        if self.supports_network(network) is not None:
            return None
        executor = GRLExecutor(network)
        result = executor.run(
            dict(zip(network.input_names, volley)), params=params
        )
        program, wires = executor.network, executor.node_wires
        values = [result.fall_times[wires[node.id]] for node in program.nodes]
        return spike_trace(program, values)


#: Every engine class, in the pinned conformance report order.
ENGINES: tuple[type[BackendEngine], ...] = (
    InterpretedEngine,
    CompiledBatchEngine,
    EventDrivenEngine,
    GRLCircuitEngine,
)
