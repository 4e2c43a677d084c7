"""Cycle-accurate digital simulation of GRL circuits.

This simulator is deliberately *not* aware of the s-t algebra: it pushes
boolean levels through gates cycle by cycle, exactly as a synchronous
CMOS testbench would — inputs idle high and fall at their programmed
cycles; DFFs sample on the clock; the LT latch is a level-sensitive
feedback loop with a reset.  The first 1→0 transition of each output wire
is then *read back* as a time value.

Because it shares nothing with the denotational evaluator, agreement
between the two (tested exhaustively, benchmarked at scale) is genuine
evidence for the paper's §V claim: off-the-shelf digital circuits
implement the space-time algebra.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

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
    """Reusable cycle simulator for one circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit

    def run(
        self,
        inputs: Mapping[str, Time],
        *,
        horizon: int | None = None,
    ) -> DigitalResult:
        """Simulate until *horizon* cycles (auto-sized if omitted).

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
        input_falls: dict[int, Time] = {}
        latest = 0
        for name, gid in circuit.input_ids.items():
            fall = check_time(inputs[name], name=name)
            input_falls[gid] = fall
            if not isinstance(fall, Infinity):
                latest = max(latest, fall)
        if horizon is None:
            horizon = latest + circuit.flipflop_count + 1

        n = len(circuit.gates)
        dff_state = {g.id: 1 for g in circuit.gates if g.kind == "dff"}
        lt_state = {g.id: 1 for g in circuit.gates if g.kind == "lt"}  # reset
        fall_times: list[Time] = [INF] * n
        transitions = 0

        # Settle pass (reset state, all inputs idle high): establishes each
        # wire's pre-computation level — NOT outputs idle *low* — so the
        # transition count reflects only computation activity.
        level = [1] * n
        for gate in circuit.gates:
            if gate.kind == "and":
                level[gate.id] = int(all(level[s] for s in gate.sources))
            elif gate.kind == "or":
                level[gate.id] = int(any(level[s] for s in gate.sources))
            elif gate.kind == "not":
                level[gate.id] = 1 - level[gate.sources[0]]
            # inputs, dffs, and reset lt latches all idle high.

        for cycle in range(horizon + 1):
            # DFF outputs present their state sampled at the last edge.
            new_level = list(level)
            for gate in circuit.gates:
                if gate.kind == "input":
                    fall = input_falls[gate.id]
                    new_level[gate.id] = 0 if fall <= cycle else 1
                elif gate.kind == "and":
                    new_level[gate.id] = int(
                        all(new_level[s] for s in gate.sources)
                    )
                elif gate.kind == "or":
                    new_level[gate.id] = int(
                        any(new_level[s] for s in gate.sources)
                    )
                elif gate.kind == "not":
                    new_level[gate.id] = 1 - new_level[gate.sources[0]]
                elif gate.kind == "dff":
                    new_level[gate.id] = dff_state[gate.id]
                else:  # lt latch: (a OR NOT b) AND state, state freezes 0
                    a, b = gate.sources
                    combinational = new_level[a] | (1 - new_level[b])
                    out = combinational & lt_state[gate.id]
                    lt_state[gate.id] = out
                    new_level[gate.id] = out
            # Count toggles and record first falls.
            for gid in range(n):
                if new_level[gid] != level[gid]:
                    transitions += 1
                    if new_level[gid] == 0 and isinstance(fall_times[gid], Infinity):
                        fall_times[gid] = cycle
            level = new_level
            # Clock edge: DFFs capture their inputs for the next cycle.
            for gate in circuit.gates:
                if gate.kind == "dff":
                    dff_state[gate.id] = level[gate.sources[0]]

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
