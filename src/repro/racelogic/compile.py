"""Compile space-time networks to GRL circuits (paper §V).

The mapping (Fig. 16, with the 1→0 edge encoding):

=============  =================================
s-t primitive  GRL gate
=============  =================================
``min``        AND (any low input forces low)
``max``        OR (stays high until all fall)
``lt``         the latched a-before-b gate
``inc(+c)``    c clocked flip-flops (shift reg.)
``param``      an input wire pinned by the config
=============  =================================

The compiled circuit, run on the cycle-accurate
:class:`~repro.racelogic.digital.DigitalSimulator`, produces output fall
times identical to the network's spike times — the paper's claim that
TNNs can be implemented directly with off-the-shelf CMOS.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Optional

from ..core.value import Time
from ..ir.program import ProgramLike, ensure_program
from ..obs.trace import NULL_SINK, TraceSink, emit_events
from .circuit import Circuit, CircuitBuilder
from .digital import DigitalResult, DigitalSimulator


def compile_network(
    network: ProgramLike,
    *,
    name: Optional[str] = None,
    node_map: Optional[dict[int, int]] = None,
) -> Circuit:
    """Translate an s-t network or IR program into a GRL netlist.

    Parameters become circuit inputs (bind them with the same 0/∞ values
    at simulation time); node-for-gate the structure is otherwise
    preserved, with ``inc`` nodes expanding into DFF chains.

    The IR declares which nodes are the lattice-identity constants
    (:attr:`~repro.ir.program.Program.const_ids`); those have no gate
    realization, so a program still carrying one is rejected here — run
    the optimizer (:mod:`repro.ir.passes`) to fold them away
    where the lattice laws allow.

    *node_map*, if given, is filled with ``node id -> gate id`` — the
    gate whose 1→0 fall time *is* the node's spike time (for an ``inc``
    chain, the final flip-flop).  The spike-trace read-back uses it.
    """
    program = ensure_program(network)
    program.require_comparators("the GRL compiler")
    if program.const_ids:
        node = program.nodes[program.const_ids[0]]
        constant = "∞" if node.kind == "min" else "0"
        raise ValueError(
            f"node {node.id}: a zero-source {node.kind} (the constant "
            f"{constant}) has no GRL realization — a CMOS gate needs "
            "input wires"
        )
    builder = CircuitBuilder(name or f"grl-{program.name}")
    wire: dict[int, int] = node_map if node_map is not None else {}
    for node in program.nodes:
        if node.kind in ("input", "param"):
            wire[node.id] = builder.input(node.name)
        elif node.kind == "inc":
            wire[node.id] = builder.delay(wire[node.sources[0]], node.amount)
        elif node.kind == "min":
            wire[node.id] = builder.and_(*(wire[s] for s in node.sources))
        elif node.kind == "max":
            wire[node.id] = builder.or_(*(wire[s] for s in node.sources))
        else:  # lt
            a, b = node.sources
            wire[node.id] = builder.lt(wire[a], wire[b])
    for out_name, node_id in program.outputs.items():
        builder.output(out_name, wire[node_id])
    return builder.build()


class GRLExecutor:
    """Run an s-t network *as hardware*: compile once, simulate per input."""

    def __init__(self, network: ProgramLike):
        self.network = ensure_program(network)
        self.node_wires: dict[int, int] = {}
        self.circuit = compile_network(self.network, node_map=self.node_wires)
        self._simulator = DigitalSimulator(self.circuit)

    def run(
        self,
        inputs: Mapping[str, Time],
        *,
        params: Optional[Mapping[str, Time]] = None,
        horizon: int | None = None,
        sink: TraceSink = NULL_SINK,
    ) -> DigitalResult:
        """Run one volley.  *sink*, when enabled, receives the canonical
        *node-level* spike trace, read back from gate fall times through
        the node→wire map — directly comparable (byte-identical on
        agreement) to the other three backends' traces."""
        bound = dict(inputs)
        for pname in self.network.param_ids:
            if params is None or pname not in params:
                raise ValueError(f"unbound parameter {pname!r}")
            bound[pname] = params[pname]
        result = self._simulator.run(bound, horizon=horizon)
        if sink.enabled:
            values = [
                result.fall_times[self.node_wires[node.id]]
                for node in self.network.nodes
            ]
            emit_events(sink, self.network, values)
        return result

    def outputs(
        self,
        inputs: Mapping[str, Time],
        *,
        params: Optional[Mapping[str, Time]] = None,
    ) -> dict[str, Time]:
        """Just the output fall times — directly comparable to
        :func:`repro.network.simulator.evaluate`."""
        return self.run(inputs, params=params).outputs
