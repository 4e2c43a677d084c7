"""Property suite for the kernel composition operator.

The two ISSUE-level properties, plus their supporting invariants:

* **Monolithic equivalence** — a composed kernel's fire times are
  byte-identical to the equivalent monolithic network (same circuit
  authored in one ``NetworkBuilder``), and byte-identical across all
  four execution backends on random compositions;
* **Associativity** — ``compose`` is associative up to program
  fingerprint, both on the raw composition and after the pass pipeline
  runs to fingerprint fixpoint.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.value import INF
from repro.ir.passes import optimize_program
from repro.kernels import (
    KERNELS,
    build_kernel,
    compose,
    interval_intersect,
    kernel_attribution,
    latch,
)
from repro.network.builder import NetworkBuilder
from repro.testing.conformance import diff_backends
from repro.testing.generators import (
    adversarial_volleys,
    random_kernel_network,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_stages(seed, n_stages):
    """The same renaming-chain construction the generator family uses."""
    rng = random.Random(seed)
    stages = []
    available = []
    for index in range(n_stages):
        name = rng.choice(list(KERNELS))
        variant = dict(rng.choice(KERNELS[name].variants))
        kernel = build_kernel(name, **variant)
        out_map = {port: f"s{index}_{port}" for port in kernel.outputs}
        pool = list(available)
        rng.shuffle(pool)
        in_map = {}
        for port in kernel.inputs:
            if pool and rng.random() < 0.7:
                in_map[port] = pool.pop()
            else:
                in_map[port] = f"s{index}_in_{port}"
        stages.append(
            kernel.renamed(inputs=in_map, outputs=out_map, name=f"s{index}")
        )
        available.extend(out_map.values())
    return stages


def staged_outputs(stages, volley):
    """Evaluate the chain stage by stage, wiring outputs to inputs by name."""
    composed_inputs = []
    seen = set()
    for stage in stages:
        produced_so_far = {
            port for earlier in stages[: stages.index(stage)]
            for port in earlier.outputs
        }
        for port in stage.inputs:
            if port not in produced_so_far and port not in seen:
                seen.add(port)
                composed_inputs.append(port)
    bound = dict(zip(composed_inputs, volley))
    wires = dict(bound)
    for stage in stages:
        stage_out = stage.evaluate(tuple(wires[p] for p in stage.inputs))
        wires.update(stage_out)
    return wires


class TestMonolithicEquivalence:
    @SETTINGS
    @given(seed=seeds)
    def test_composed_equals_staged_evaluation(self, seed):
        """compose() wiring == evaluating the stages one at a time."""
        stages = random_stages(seed, n_stages=3)
        composed = compose(*stages)
        volleys = adversarial_volleys(
            composed.arity, rng=random.Random(seed ^ 0x5EED), n_random=2
        )
        for volley in volleys:
            by_stages = staged_outputs(stages, volley)
            whole = composed.evaluate(volley)
            assert whole == {port: by_stages[port] for port in whole}

    @SETTINGS
    @given(seed=seeds)
    def test_composed_network_agrees_across_four_backends(self, seed):
        network = random_kernel_network(seed=seed, smoke=True)
        volleys = adversarial_volleys(
            len(network.input_names),
            rng=random.Random(seed ^ 0xBEEF),
            n_random=3,
        )
        run, disagreements = diff_backends(network, volleys)
        assert disagreements == []
        assert "compiled-batch" in run.results

    def test_composed_matches_hand_built_monolith(self):
        """One concrete circuit, authored both ways, byte-for-byte."""
        stage_a = interval_intersect()
        stage_b = latch(hold=1).renamed(
            inputs={"data": "proper", "close": "deadline"}
        )
        composed = compose(stage_a, stage_b, name="intersect-latch")

        mono = NetworkBuilder("monolith")
        a_lo, a_hi = mono.input("a_lo"), mono.input("a_hi")
        b_lo, b_hi = mono.input("b_lo"), mono.input("b_hi")
        lo = mono.max(a_lo, b_lo)
        hi = mono.min(a_hi, b_hi)
        proper = mono.lt(lo, hi)
        deadline = mono.input("deadline")
        mono.output("q", mono.inc(mono.lt(proper, deadline), 1))
        mono.output("missed", mono.lt(deadline, proper))
        monolith = mono.build()

        assert composed.inputs == list(monolith.input_names)
        volleys = adversarial_volleys(
            composed.arity, rng=random.Random(7), n_random=6
        )
        run, disagreements = diff_backends(monolith, volleys)
        assert disagreements == []
        from repro.network import evaluate_vector

        for volley in volleys:
            whole = composed.evaluate(volley)
            direct = evaluate_vector(monolith, volley)
            assert whole["q"] == direct["q"]
            assert whole["missed"] == direct["missed"]


class TestAssociativity:
    @SETTINGS
    @given(seed=seeds)
    def test_groupings_share_fingerprint_raw_and_optimized(self, seed):
        a, b, c = random_stages(seed, n_stages=3)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        flat = compose(a, b, c)
        assert left.program.fingerprint() == flat.program.fingerprint()
        assert right.program.fingerprint() == flat.program.fingerprint()
        left_opt, _ = optimize_program(left.program)
        right_opt, _ = optimize_program(right.program)
        assert left_opt.fingerprint() == right_opt.fingerprint()

    @SETTINGS
    @given(seed=seeds)
    def test_grouping_cannot_change_fire_times(self, seed):
        a, b, c = random_stages(seed, n_stages=3)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left.inputs == right.inputs
        assert left.outputs == right.outputs
        volleys = adversarial_volleys(
            left.arity, rng=random.Random(seed ^ 0xACC), n_random=2
        )
        for volley in volleys:
            assert left.evaluate(volley) == right.evaluate(volley)


class TestProvenance:
    @SETTINGS
    @given(seed=seeds)
    def test_every_compute_node_attributes_to_a_stage(self, seed):
        stages = random_stages(seed, n_stages=2)
        composed = compose(*stages)
        attribution = kernel_attribution(composed.program)
        for node in composed.program.nodes:
            if node.kind in ("input", "param"):
                assert attribution[node.id] == ()
            else:
                assert attribution[node.id], node

    @SETTINGS
    @given(seed=seeds)
    def test_attribution_survives_the_pass_pipeline(self, seed):
        stages = random_stages(seed, n_stages=2)
        composed = compose(*stages)
        optimized, _ = optimize_program(composed.program)
        attribution = kernel_attribution(optimized, composed.program)
        stage_names = {stage.name for stage in stages}
        terminals = set(optimized.input_ids.values()) | set(
            optimized.param_ids.values()
        ) | set(optimized.const_ids)
        for node in optimized.nodes:
            if node.id in terminals:
                continue
            assert attribution[node.id], node
            assert set(attribution[node.id]) <= stage_names


def test_compose_rejects_duplicate_output_names():
    import pytest

    from repro.kernels import KernelError

    with pytest.raises(KernelError, match="output port"):
        compose(latch(), latch())


def test_compose_single_kernel_is_identity():
    kernel = latch()
    assert compose(kernel) is kernel


def test_compose_unifies_like_named_inputs():
    """Two stages reading an unmatched port named 'close' share one line."""
    first = latch().renamed(outputs={"q": "q1", "missed": "m1"}, name="l1")
    second = latch().renamed(
        inputs={"data": "q1"},
        outputs={"q": "q2", "missed": "m2"},
        name="l2",
    )
    composed = compose(first, second)
    # data, close from stage 1; stage 2's q1 is wired, its close unifies.
    assert composed.inputs == ["data", "close"]
    out = composed.evaluate((0, 5))
    assert out["q1"] == 0
    assert out["q2"] == 0  # q1=0 beats the shared close=5 again
    out = composed.evaluate((0, INF))
    assert out["q1"] == 0 and out["q2"] == 0
    out = composed.evaluate((3, 1))
    assert out["q1"] is INF and out["m1"] == 1 and out["q2"] is INF
