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
``rank``       one output of a bitonic sorter (Fig. 10)
=============  =================================

The compiled circuit, run on the cycle-accurate
:class:`~repro.racelogic.digital.DigitalSimulator`, produces output fall
times identical to the network's spike times — the paper's claim that
TNNs can be implemented directly with off-the-shelf CMOS.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import SimpleNamespace
from typing import Optional

from ..core.value import Time
from ..network.graph import Network
from ..network.sorting import bitonic_sort
from .circuit import Circuit, CircuitBuilder
from .digital import DigitalResult, DigitalSimulator


def compile_network(
    network: Network,
    *,
    name: Optional[str] = None,
    node_map: Optional[dict[int, int]] = None,
) -> Circuit:
    """Translate an s-t network or IR program into a GRL netlist.

    Parameters become circuit inputs (bind them with the same 0/∞ values
    at simulation time); node-for-gate the structure is otherwise
    preserved, with ``inc`` nodes expanding into DFF chains and the
    rank rows of one sorter into one bitonic sorter over their lanes.

    The network declares which nodes are the lattice-identity constants
    (:attr:`~repro.network.graph.Network.const_ids`); those have no gate
    realization, so a program still carrying one is rejected here — run
    the optimizer (:mod:`repro.ir.passes`) to fold them away
    where the lattice laws allow.

    *node_map*, if given, is filled with ``node id -> gate id`` — the
    gate whose 1→0 fall time *is* the node's spike time (for an ``inc``
    chain, the final flip-flop; for a rank row, its sorted output).  The
    spike-trace read-back uses it.
    """
    if network.const_ids:
        node = network.nodes[network.const_ids[0]]
        constant = "∞" if node.kind == "min" else "0"
        raise ValueError(
            f"node {node.id}: a zero-source {node.kind} (the constant "
            f"{constant}) has no GRL realization — a CMOS gate needs "
            "input wires"
        )
    builder = CircuitBuilder(name or f"grl-{network.name}")
    wire: dict[int, int] = node_map if node_map is not None else {}
    comparators = SimpleNamespace(  # bitonic_sort's builder: AND is min, OR max
        min=lambda a, b, tag="": builder.and_(a, b),
        max=lambda a, b, tag="": builder.or_(a, b),
    )
    lanes: tuple[int, ...] = ()
    for node in network.nodes:
        if node.kind in ("input", "param"):
            wire[node.id] = builder.input(node.name)
        elif node.kind == "inc":
            wire[node.id] = builder.delay(wire[node.sources[0]], node.amount)
        elif node.kind == "min":
            wire[node.id] = builder.and_(*(wire[s] for s in node.sources))
        elif node.kind == "max":
            wire[node.id] = builder.or_(*(wire[s] for s in node.sources))
        elif node.kind == "rank":
            if node.sources is not lanes:  # one sorter's rows share lanes
                lanes = node.sources
                ranked = bitonic_sort(comparators, [wire[s] for s in lanes])
            wire[node.id] = ranked[node.amount]
        else:  # lt
            a, b = node.sources
            wire[node.id] = builder.lt(wire[a], wire[b])
    for out_name, node_id in network.outputs.items():
        builder.output(out_name, wire[node_id])
    return builder.build()


class GRLExecutor:
    """Run an s-t network *as hardware*: compile once, simulate per input."""

    def __init__(self, network: Network):
        self.network = network
        self.node_wires: dict[int, int] = {}
        self.circuit = compile_network(self.network, node_map=self.node_wires)
        self._simulator = DigitalSimulator(self.circuit)

    def run(
        self,
        inputs: Mapping[str, Time],
        *,
        params: Optional[Mapping[str, Time]] = None,
        horizon: int | None = None,
    ) -> DigitalResult:
        """Run one volley.  A node's spike time is the fall time of its
        gate, ``result.fall_times[self.node_wires[node_id]]`` — the
        read-back the canonical spike trace is taken from."""
        bound = dict(inputs)
        for pname in self.network.param_ids:
            if params is None or pname not in params:
                raise ValueError(f"unbound parameter {pname!r}")
            bound[pname] = params[pname]
        return self._simulator.run(bound, horizon=horizon)

    def outputs(
        self,
        inputs: Mapping[str, Time],
        *,
        params: Optional[Mapping[str, Time]] = None,
    ) -> dict[str, Time]:
        """Just the output fall times — directly comparable to
        :func:`repro.network.simulator.evaluate`."""
        return self.run(inputs, params=params).outputs
