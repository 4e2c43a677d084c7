"""The event-driven GRL simulator against the per-cycle sweep it replaced.

Visiting only the cycles where something switches, and settling only
the fan-out of what changed, must give exactly the sweep's result:
outputs, every gate's fall time, the toggle count and
``cycles_simulated``.  The sweep is frozen in :mod:`.reference_sweep`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.value import INF, Infinity
from repro.ir.passes import optimize_program
from repro.ir.sorters import group_sorters
from repro.racelogic.circuit import CircuitBuilder
from repro.racelogic.compile import GRLExecutor
from repro.racelogic.digital import DigitalSimulator
from repro.testing.generators import FAMILIES, generate_case

from .reference_sweep import sweep

#: Volleys whose latest spike is later than this are left out: the sweep
#: steps every cycle up to it, so a near-sentinel volley never finishes.
SWEEPABLE = 1_000


def _assert_same(simulator, inputs, horizon=None):
    got = simulator.run(inputs, horizon=horizon)
    want = sweep(simulator.circuit, inputs, horizon=horizon)
    assert got.outputs == want.outputs
    assert got.fall_times == want.fall_times
    assert got.transition_count == want.transition_count
    assert got.cycles_simulated == want.cycles_simulated
    return want


@pytest.mark.parametrize("optimize", [False, True], ids=["raw", "served"])
@pytest.mark.parametrize("family", [name for name, _weight in FAMILIES])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000), smoke=st.booleans(), cut=st.floats(0.0, 1.0))
def test_every_family_matches_the_sweep(family, optimize, seed, smoke, cut):
    case = generate_case(seed, smoke=smoke, family=family)
    network = case.network
    if optimize:
        network = optimize_program(group_sorters(network))[0]
    if network.const_ids:  # a constant has no gate realization
        return
    simulator = DigitalSimulator(GRLExecutor(network).circuit)
    for volley in case.volleys:
        finite = [t for t in volley if not isinstance(t, Infinity)]
        if finite and max(finite) > SWEEPABLE:
            continue
        inputs = dict(zip(network.input_names, volley))
        for name in network.param_ids:
            inputs[name] = case.params[name]
        full = _assert_same(simulator, inputs)
        # An explicit horizon below the default, as shortest_path passes.
        _assert_same(simulator, inputs, int(cut * (full.cycles_simulated - 1)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hand_built_netlists_match_the_sweep(seed):
    """Raw netlists reach what compiled ones never do: an inverter feeding
    a DFF or a latch, so a gate may switch on cycle 0 from reset alone."""
    rng = random.Random(seed)
    b = CircuitBuilder()
    wires = [b.input(f"i{k}") for k in range(rng.randint(1, 4))]
    for _ in range(rng.randint(1, 25)):
        kind = rng.choice(["and", "or", "not", "dff", "lt", "delay"])
        if kind in ("and", "or"):
            picked = [rng.choice(wires) for _ in range(rng.randint(1, 3))]
            wire = getattr(b, f"{kind}_")(*picked)
        elif kind == "not":
            wire = b.not_(rng.choice(wires))
        elif kind == "dff":
            wire = b.dff(rng.choice(wires))
        elif kind == "delay":
            wire = b.delay(rng.choice(wires), rng.randint(0, 3))
        else:
            wire = b.lt(rng.choice(wires), rng.choice(wires))
        wires.append(wire)
    for index, wire in enumerate(rng.sample(wires, min(3, len(wires)))):
        b.output(f"o{index}", wire)
    simulator = DigitalSimulator(b.build())
    for _ in range(4):
        inputs = {
            name: INF if rng.random() < 0.3 else rng.randint(0, 8)
            for name in simulator.circuit.input_names
        }
        _assert_same(simulator, inputs, rng.choice([None, rng.randint(-1, 12)]))
