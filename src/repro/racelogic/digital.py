"""Event-driven, cycle-accurate digital simulation of GRL circuits.

This simulator is deliberately *not* aware of the s-t algebra: it pushes
boolean levels through gates exactly as a synchronous CMOS testbench
would — inputs idle high and fall at their programmed cycles; DFFs
sample on the clock; the LT latch is a level-sensitive feedback loop
with a reset.  The first 1→0 transition of each output wire is then
*read back* as a time value.

In Generalized Race Logic every wire switches at most a few times per
run, so the simulator does work only where something switches.  It visits
only the cycles in which an input falls or a flip-flop's captured level
differs from its output, and in each of those it settles only the
fan-out of the wires that changed, once per gate in gate-id order (a
topological order).  Every other cycle would repeat the previous one.
The result — fall times, toggle count and ``cycles_simulated`` — is that
of stepping every gate on every cycle ``0..horizon``.

Because it shares nothing with the denotational evaluator, agreement
between the two (tested exhaustively, benchmarked at scale) is genuine
evidence for the paper's §V claim: off-the-shelf digital circuits
implement the space-time algebra.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from ..core.value import INF, Infinity, Time, check_time
from ..obs.metrics import METRICS
from .circuit import Circuit, CircuitError


@dataclass
class DigitalResult:
    """Outcome of one GRL run."""

    outputs: dict[str, Time]
    fall_times: list[Time]
    transition_count: int
    cycles_simulated: int

    def transitions_on(self, gate_id: int) -> int:
        return 0 if isinstance(self.fall_times[gate_id], Infinity) else 1


class DigitalSimulator:
    """Reusable event-driven cycle simulator for one circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        gates = circuit.gates
        # Settle pass (reset state, all inputs idle high): establishes each
        # wire's pre-computation level — NOT outputs idle *low* — so the
        # transition count reflects only computation activity.  Inputs,
        # DFFs and reset LT latches idle high.
        idle = [1] * len(gates)
        for gate in gates:
            if gate.kind == "and":
                idle[gate.id] = min(idle[s] for s in gate.sources)
            elif gate.kind == "or":
                idle[gate.id] = max(idle[s] for s in gate.sources)
            elif gate.kind == "not":
                idle[gate.id] = 1 - idle[gate.sources[0]]
        self._idle = idle
        # Consumers that settle in the same cycle, and DFFs that capture.
        self._fanout: list[list[int]] = [[] for _ in gates]
        self._captures: list[list[int]] = [[] for _ in gates]
        for gate in gates:
            consumers = self._captures if gate.kind == "dff" else self._fanout
            for source in set(gate.sources):
                consumers[source].append(gate.id)
        # What the reset itself sets moving on cycle 0: a latch whose
        # (a OR NOT b) is low at idle drops, and a DFF whose source
        # idles low captures a 0.
        self._reset_latches = [
            g.id for g in gates
            if g.kind == "lt" and not idle[g.sources[0]] and idle[g.sources[1]]
        ]
        self._reset_captures = [
            g.id for g in gates if g.kind == "dff" and not idle[g.sources[0]]
        ]

    def run(
        self,
        inputs: Mapping[str, Time],
        *,
        horizon: int | None = None,
    ) -> DigitalResult:
        """Simulate cycles ``0..horizon`` (auto-sized if omitted).

        The automatic horizon covers the latest finite input plus every
        DFF stage plus one settling cycle — enough for any fall to
        propagate through a feedforward netlist.

        ``fall_times`` holds each gate's first 1→0 fall; the canonical
        node-level spike trace is read back from it through
        :attr:`~repro.racelogic.compile.GRLExecutor.node_wires`.
        """
        circuit = self.circuit
        missing = set(circuit.input_ids) - set(inputs)
        if missing:
            raise CircuitError(f"unbound inputs: {sorted(missing)}")
        falling: dict[int, list[int]] = {}  # cycle -> inputs that fall
        latest = 0
        for name, gid in circuit.input_ids.items():
            fall = check_time(inputs[name], name=name)
            if not isinstance(fall, Infinity):
                latest = max(latest, fall)
                falling.setdefault(fall, []).append(gid)
        if horizon is None:
            horizon = latest + circuit.flipflop_count + 1
        fall_cycles = sorted(falling, reverse=True)  # pop() yields the next

        gates = circuit.gates
        fanout, captures = self._fanout, self._captures
        level = list(self._idle)
        fall_times: list[Time] = [INF] * len(gates)
        transitions = 0
        captured: dict[int, int] = {}  # DFF -> level it presents next cycle
        queue = list(self._reset_latches)
        cycle = 0
        while cycle <= horizon:
            if fall_cycles and fall_cycles[-1] == cycle:
                queue.extend(falling[fall_cycles.pop()])
            presented, captured = captured, {}
            queue.extend(presented)
            heapify(queue)
            changed: list[int] = []
            previous = -1
            while queue:
                gid = heappop(queue)
                if gid == previous:  # queued by two changed sources
                    continue
                previous = gid
                gate = gates[gid]
                kind = gate.kind
                if kind == "input":
                    new = 0
                elif kind == "dff":
                    new = presented[gid]
                elif kind == "and":
                    new = min([level[s] for s in gate.sources])
                elif kind == "or":
                    new = max([level[s] for s in gate.sources])
                elif kind == "not":
                    new = 1 - level[gate.sources[0]]
                else:  # lt latch: (a OR NOT b) AND state, state freezes 0
                    a, b = gate.sources
                    new = (level[a] | (1 - level[b])) & level[gid]
                if new == level[gid]:
                    continue
                level[gid] = new
                transitions += 1
                if not new and isinstance(fall_times[gid], Infinity):
                    fall_times[gid] = cycle
                changed.append(gid)
                for consumer in fanout[gid]:
                    heappush(queue, consumer)
            # Clock edge: a DFF whose input now differs from its output
            # presents the new level next cycle.
            edge = [d for gid in changed for d in captures[gid]]
            if cycle == 0:
                edge.extend(self._reset_captures)
            for dff in edge:
                source_level = level[gates[dff].sources[0]]
                if source_level != level[dff]:
                    captured[dff] = source_level
            if captured:
                cycle += 1
            elif fall_cycles:
                cycle = fall_cycles[-1]
            else:
                break

        outputs = {
            name: fall_times[gid] for name, gid in circuit.outputs.items()
        }
        METRICS.inc("grl.runs")
        METRICS.inc("grl.transitions", transitions)
        return DigitalResult(
            outputs=outputs,
            fall_times=fall_times,
            transition_count=transitions,
            cycles_simulated=horizon + 1,
        )


def run_circuit(
    circuit: Circuit,
    inputs: Mapping[str, Time],
    *,
    horizon: int | None = None,
) -> DigitalResult:
    """One-shot simulation of *circuit*."""
    return DigitalSimulator(circuit).run(inputs, horizon=horizon)
