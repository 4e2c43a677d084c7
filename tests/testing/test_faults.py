"""Fault-injection unit tests and ∞-sentinel boundary regressions.

The satellite regressions pin the sentinel boundary under fault
injection: ``inc`` chains that saturate at ``iinfo(int64).max`` must
stay in agreement after canonicalization, jitter that pushes a
near-sentinel time over the edge must land exactly on ``∞``, and the
zero-source min/max identities must survive dropped lines.
"""

import random

import numpy as np
import pytest

from repro.core.value import INF, Infinity
from repro.network.builder import NetworkBuilder
from repro.network.compile_plan import INF_I64, MAX_FINITE
from repro.testing.faults import (
    FAULT_CLASSES,
    NETWORK_MUTATIONS,
    FaultedOracle,
    PlanReorderOracle,
    drop_lines,
    jitter_volley,
    mutate_inc_amount,
    mutate_lt_swap,
    mutate_min_max_swap,
    random_mutant,
    stuck_at_zero,
)
from repro.testing.generators import generate_case
from repro.runtime.engines import CompiledBatchEngine, InterpretedEngine
from repro.testing.oracles import run_backends, saturate_outputs


# ---------------------------------------------------------------------------
# ∞-sentinel boundary regressions
# ---------------------------------------------------------------------------

class TestSentinelBoundary:
    def test_int64_sentinel_is_numpy_iinfo_max(self):
        assert INF_I64 == np.iinfo(np.int64).max
        assert MAX_FINITE == INF_I64 - 1

    def test_saturating_inc_chain_agrees_across_backends(self):
        # Two huge delays: interpreted computes x + 2*(2**62) exactly
        # (arbitrary precision) while the compiled engine saturates at
        # the sentinel.  Canonicalized, both must read ∞.
        b = NetworkBuilder("saturator")
        x = b.input("x")
        b.output("y", b.inc(b.inc(x, 2**62), 2**62))
        net = b.build()
        run = run_backends(net, [(0,), (5,), (MAX_FINITE,), (INF,)])
        # The gate model budgets out (one flip-flop per inc unit).
        assert "grl-circuit" in run.skipped
        for name in ("interpreted", "compiled-batch", "event-driven"):
            assert run.results[name] == [(INF,), (INF,), (INF,), (INF,)]

    def test_inc_to_exactly_max_finite_stays_finite(self):
        b = NetworkBuilder("edge")
        x = b.input("x")
        b.output("y", b.inc(x, MAX_FINITE - 10))
        net = b.build()
        run = run_backends(net, [(10,), (11,), (INF,)])
        for name in ("interpreted", "compiled-batch", "event-driven"):
            assert run.results[name] == [(MAX_FINITE,), (INF,), (INF,)]

    def test_jitter_pushes_near_sentinel_times_to_inf(self):
        saturated = 0
        for seed in range(64):
            (moved,) = jitter_volley((MAX_FINITE,), jitter=3, seed=seed)
            if isinstance(moved, Infinity):
                saturated += 1
            else:
                assert 0 <= moved <= MAX_FINITE
        assert saturated > 0, "no positive offset in 64 seeds"

    def test_jittered_volleys_stay_conformant(self):
        # A faulted oracle's *output* can be wrong, but the jittered
        # volley itself must still be a legal volley for every backend.
        case = generate_case(4, smoke=True)
        jittered = [
            jitter_volley(v, jitter=2, seed=99) for v in case.volleys
        ]
        run = run_backends(
            case.network, jittered, params=case.params or None
        )
        # The reference backends accept every jittered volley outright.
        for name in ("interpreted", "compiled-batch", "event-driven"):
            assert all(row is not None for row in run.results[name])

    def test_zero_source_identities_survive_line_drops(self):
        b = NetworkBuilder("identities")
        x, y = b.inputs("x", "y")
        b.output("never", b.min())   # identity of min: ∞
        b.output("always", b.max())  # identity of max: 0
        b.output("race", b.lt(x, y))
        net = b.build()
        for dead in ([0], [1], [0, 1]):
            volley = drop_lines((3, 7), dead)
            run = run_backends(net, [volley])
            assert "grl-circuit" in run.skipped  # no gate realization
            for name in ("interpreted", "compiled-batch", "event-driven"):
                out = run.results[name][0]
                assert out[0] is INF and out[1] == 0, (
                    f"{name} broke an identity constant under drop {dead}"
                )


# ---------------------------------------------------------------------------
# Volley faults
# ---------------------------------------------------------------------------

class TestVolleyFaults:
    def test_jitter_deterministic_per_seed(self):
        volley = (0, 5, INF, MAX_FINITE)
        a = jitter_volley(volley, jitter=3, seed=7)
        b = jitter_volley(volley, jitter=3, seed=7)
        assert a == b
        assert jitter_volley(volley, jitter=0, seed=7) == volley

    def test_jitter_offset_independent_of_value(self):
        # Same (seed, line) -> same offset, whatever the spike time:
        # this is what keeps the fault stable under volley shrinking.
        (a,) = jitter_volley((10,), jitter=3, seed=5)
        (b,) = jitter_volley((20,), jitter=3, seed=5)
        assert int(a) - 10 == int(b) - 20

    def test_jitter_preserves_silence_and_clamps(self):
        out = jitter_volley((INF, 0), jitter=3, seed=11)
        assert out[0] is INF
        assert not isinstance(out[1], Infinity) and out[1] >= 0

    def test_jitter_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            jitter_volley((1,), jitter=-1, seed=0)

    def test_drop_and_stuck(self):
        assert drop_lines((1, 2, 3), [1]) == (1, INF, 3)
        assert stuck_at_zero((1, 2, 3), [0, 2]) == (0, 2, 0)


# ---------------------------------------------------------------------------
# Network mutants
# ---------------------------------------------------------------------------

def small_net():
    b = NetworkBuilder("small")
    x, y = b.inputs("x", "y")
    first = b.min(x, y)
    b.output("z", b.lt(b.inc(first, 2), b.max(x, y)))
    return b.build()


class TestNetworkMutants:
    def test_min_max_swap_changes_kind_only(self):
        net = small_net()
        mutant, description = mutate_min_max_swap(net, random.Random(0))
        assert len(mutant.nodes) == len(net.nodes)
        assert mutant.fingerprint() != net.fingerprint()
        assert "->" in description
        kinds = sorted(n.kind for n in mutant.nodes)
        # one min/max flipped into the other; node count per kind changed
        assert kinds != sorted(n.kind for n in net.nodes)

    def test_inc_amount_drift_never_below_one(self):
        b = NetworkBuilder("unit-delay")
        b.output("y", b.inc(b.input("x"), 1))
        net = b.build()
        for seed in range(8):
            mutant, _ = mutate_inc_amount(net, random.Random(seed))
            (inc,) = [n for n in mutant.nodes if n.kind == "inc"]
            assert inc.amount == 2  # 1 can only drift up

    def test_lt_swap_flips_operands(self):
        net = small_net()
        mutant, _ = mutate_lt_swap(net, random.Random(0))
        original = next(n for n in net.nodes if n.kind == "lt")
        swapped = next(n for n in mutant.nodes if n.kind == "lt")
        assert swapped.sources == (original.sources[1], original.sources[0])

    def test_random_mutant_none_on_pure_wire(self):
        b = NetworkBuilder("wire")
        b.output("y", b.input("x"))
        assert random_mutant(b.build(), random.Random(0)) is None

    def test_every_operator_applies_to_generated_cases(self):
        applied = set()
        for seed in range(30):
            net = generate_case(seed, smoke=True).network
            for operator in NETWORK_MUTATIONS:
                if operator(net, random.Random(seed)) is not None:
                    applied.add(operator.__name__)
        assert applied == {op.__name__ for op in NETWORK_MUTATIONS}


# ---------------------------------------------------------------------------
# Faulted oracles
# ---------------------------------------------------------------------------

class TestFaultedOracle:
    def test_impersonates_victim_with_labeled_name(self):
        faulted = FaultedOracle(CompiledBatchEngine(), label="noop")
        assert faulted.name == "compiled-batch!noop"
        net = small_net()
        healthy = CompiledBatchEngine().run(net, [(1, 4)])
        assert faulted.run(net, [(1, 4)]) == healthy

    def test_network_transform_feeds_support_checks(self):
        net = small_net()
        mutant, _ = mutate_min_max_swap(net, random.Random(0))
        faulted = FaultedOracle(
            InterpretedEngine(),
            label="mutant",
            network_transform=lambda _net: mutant,
        )
        observed = saturate_outputs(faulted.run(net, [(0, 3)])[0])
        direct = saturate_outputs(InterpretedEngine().run(mutant, [(0, 3)])[0])
        assert observed == direct


class TestPlanReorder:
    def dependent_net(self):
        b = NetworkBuilder("chain")
        b.output("y", b.inc(b.inc(b.input("x"), 1), 1))
        return b.build()

    def test_refuses_networks_without_dependent_pair(self):
        b = NetworkBuilder("flat")
        b.output("y", b.inc(b.input("x"), 3))
        reason = PlanReorderOracle().supports_network(b.build())
        assert reason is not None and "no dependent" in reason

    def test_reorder_corrupts_dependent_chain(self):
        net = self.dependent_net()
        oracle = PlanReorderOracle()
        assert oracle.supports_network(net) is None
        broken = oracle.run(net, [(5,)])[0]
        healthy = CompiledBatchEngine().run(net, [(5,)])[0]
        assert broken != healthy  # the consumer read zeros, not x+1

    def test_reorder_never_poisons_the_programs_plan(self):
        net = self.dependent_net()
        PlanReorderOracle().run(net, [(5,)])
        assert CompiledBatchEngine().run(net, [(5,)])[0] == (7,)


class TestFaultClasses:
    def test_menu_has_at_least_three_classes(self):
        assert len(FAULT_CLASSES) >= 3
        assert len({f.name for f in FAULT_CLASSES}) == len(FAULT_CLASSES)
        for fault in FAULT_CLASSES:
            assert fault.description

    def test_builders_return_oracle_or_none(self):
        case = generate_case(0, smoke=True)
        for fault in FAULT_CLASSES:
            built = fault.build(case, random.Random(1))
            assert built is None or hasattr(built, "run")
