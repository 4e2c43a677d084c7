"""Tests for the seeded conformance-case generators."""

import pytest

from repro.core.value import INF, Infinity
from repro.network.compile_plan import MAX_FINITE
from repro.network.validate import check_feedforward
from repro.testing.generators import (
    FAMILIES,
    adversarial_volleys,
    generate_case,
    random_layered_network,
)

import random


class TestLayeredNetworks:
    def test_deterministic_in_seed(self):
        a = random_layered_network(seed=42)
        b = random_layered_network(seed=42)
        assert a.fingerprint() == b.fingerprint()

    def test_distinct_seeds_distinct_structures(self):
        prints = {random_layered_network(seed=s).fingerprint() for s in range(8)}
        assert len(prints) > 1

    def test_depth_scales_with_layers(self):
        shallow = random_layered_network(seed=3, n_layers=1, width=4)
        deep = random_layered_network(seed=3, n_layers=6, width=4)
        assert deep.depth() >= shallow.depth()
        assert deep.depth() >= 6  # each layer anchors on the previous one

    def test_feedforward_and_sized(self):
        net = random_layered_network(
            seed=9, n_inputs=3, n_layers=4, width=5, n_outputs=2
        )
        assert check_feedforward(net)
        assert len(net.input_names) == 3
        assert len(net.output_names) == 2

    def test_can_emit_zero_source_constants(self):
        found = False
        for seed in range(40):
            net = random_layered_network(seed=seed, p_empty_const=0.5)
            if any(
                n.kind in ("min", "max") and not n.sources for n in net.nodes
            ):
                found = True
                break
        assert found, "no identity-constant node in 40 draws at p=0.5"

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="at least one"):
            random_layered_network(seed=0, n_inputs=0)
        with pytest.raises(ValueError, match="unknown operations"):
            random_layered_network(seed=0, operations=("inc", "xor"))


class TestAdversarialVolleys:
    def test_contains_the_sharp_edges(self):
        rng = random.Random(0)
        volleys = adversarial_volleys(4, rng=rng)
        assert (0, 0, 0, 0) in volleys
        assert (INF, INF, INF, INF) in volleys
        assert (MAX_FINITE,) * 4 in volleys
        # the 0/∞ checkerboard
        assert (0, INF, 0, INF) in volleys

    def test_all_values_encodable(self):
        rng = random.Random(1)
        for volley in adversarial_volleys(5, rng=rng):
            for value in volley:
                assert isinstance(value, Infinity) or 0 <= value <= MAX_FINITE

    def test_needs_a_line(self):
        with pytest.raises(ValueError, match="at least one line"):
            adversarial_volleys(0, rng=random.Random(0))


class TestGenerateCase:
    def test_deterministic(self):
        a, b = generate_case(11), generate_case(11)
        assert a.family == b.family
        assert a.network.fingerprint() == b.network.fingerprint()
        assert a.volleys == b.volleys
        assert a.params == b.params

    def test_every_family_reachable(self):
        # The mixed draw reaches every weighted family; a weight-0 family
        # (sorters) stays out of it, so existing seeds keep their cases,
        # and is reached by pinning it.
        seen = {generate_case(s).family for s in range(60)}
        assert seen == {name for name, weight in FAMILIES if weight}
        for name, _ in FAMILIES:
            assert generate_case(0, smoke=True, family=name).family == name

    def test_volley_width_matches_network(self):
        for seed in range(10):
            case = generate_case(seed)
            for volley in case.volleys:
                assert len(volley) == len(case.network.input_names)

    def test_microweight_cases_bind_every_param(self):
        for seed in range(80):
            case = generate_case(seed)
            if case.family == "microweight":
                assert set(case.params) == set(case.network.param_names)
                return
        pytest.fail("no microweight case in 80 seeds")

    def test_smoke_cases_are_smaller(self):
        big = sum(len(generate_case(s).network.nodes) for s in range(12))
        small = sum(
            len(generate_case(s, smoke=True).network.nodes) for s in range(12)
        )
        assert small <= big


class TestKernelFamily:
    def test_registered_in_families(self):
        assert "kernels" in {name for name, _ in FAMILIES}

    def test_random_kernel_network_is_deterministic(self):
        from repro.testing.generators import random_kernel_network

        a = random_kernel_network(seed=21)
        b = random_kernel_network(seed=21)
        assert a.fingerprint() == b.fingerprint()
        assert a.input_names == b.input_names

    def test_family_pin_overrides_the_mix(self):
        for seed in range(8):
            case = generate_case(seed, family="kernels", smoke=True)
            assert case.family == "kernels"
            assert case.name == f"kernels[seed={seed}]"
            assert len(case.volleys[0]) == len(case.network.input_names)

    def test_family_pin_rejects_unknown_names(self):
        import pytest

        with pytest.raises(ValueError, match="unknown family"):
            generate_case(0, family="bogus")

    def test_pinned_draw_matches_mixed_draw(self):
        """A seed whose mixed draw lands on 'kernels' yields the same
        case when pinned — the rng stream stays aligned."""
        seed = next(
            s for s in range(200) if generate_case(s, smoke=True).family == "kernels"
        )
        mixed = generate_case(seed, smoke=True)
        pinned = generate_case(seed, smoke=True, family="kernels")
        assert mixed.network.fingerprint() == pinned.network.fingerprint()
        assert mixed.volleys == pinned.volleys
