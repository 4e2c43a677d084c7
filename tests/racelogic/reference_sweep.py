"""The GRL simulator's original per-cycle sweep, frozen as a reference.

Every gate is re-evaluated on every cycle ``0..horizon``, in gate-id
order, exactly as a synchronous testbench would step the netlist.  It is
kept only so the event-driven :class:`repro.racelogic.digital.
DigitalSimulator` can be checked against it result for result
(``test_digital_reference.py``); it costs ``O(cycles × gates)``.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.value import INF, Infinity, Time, check_time
from repro.racelogic.circuit import Circuit, CircuitError
from repro.racelogic.digital import DigitalResult


def sweep(
    circuit: Circuit,
    inputs: Mapping[str, Time],
    *,
    horizon: int | None = None,
) -> DigitalResult:
    """Simulate *circuit* cycle by cycle until *horizon*."""
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

    # Settle pass (reset state, all inputs idle high).
    level = [1] * n
    for gate in circuit.gates:
        if gate.kind == "and":
            level[gate.id] = int(all(level[s] for s in gate.sources))
        elif gate.kind == "or":
            level[gate.id] = int(any(level[s] for s in gate.sources))
        elif gate.kind == "not":
            level[gate.id] = 1 - level[gate.sources[0]]

    for cycle in range(horizon + 1):
        new_level = list(level)
        for gate in circuit.gates:
            if gate.kind == "input":
                fall = input_falls[gate.id]
                new_level[gate.id] = 0 if fall <= cycle else 1
            elif gate.kind == "and":
                new_level[gate.id] = int(all(new_level[s] for s in gate.sources))
            elif gate.kind == "or":
                new_level[gate.id] = int(any(new_level[s] for s in gate.sources))
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
        for gid in range(n):
            if new_level[gid] != level[gid]:
                transitions += 1
                if new_level[gid] == 0 and isinstance(fall_times[gid], Infinity):
                    fall_times[gid] = cycle
        level = new_level
        for gate in circuit.gates:
            if gate.kind == "dff":
                dff_state[gate.id] = level[gate.sources[0]]

    return DigitalResult(
        outputs={name: fall_times[gid] for name, gid in circuit.outputs.items()},
        fall_times=fall_times,
        transition_count=transitions,
        cycles_simulated=horizon + 1,
    )
