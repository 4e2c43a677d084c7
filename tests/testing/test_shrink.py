"""Tests for the greedy shrinker and regression-test emission."""

import random

import pytest

from repro.core.value import INF, Infinity
from repro.network.builder import NetworkBuilder
from repro.network.simulator import evaluate
from repro.testing.generators import random_layered_network
from repro.runtime.engines import InterpretedEngine
from repro.testing.oracles import saturate_outputs
from repro.testing.shrink import (
    emit_mutant_test,
    emit_regression_test,
    format_volley,
    minimize_case,
    restrict_to_output,
    shrink_network,
    shrink_volley,
)


class TestShrinkVolley:
    def test_irrelevant_lines_silenced(self):
        # Only line 0 matters: the predicate watches it alone.
        witness = shrink_volley((5, 9, 2), lambda v: v[0] == 5)
        assert witness == (5, INF, INF)

    def test_value_halves_toward_zero(self):
        # Any value >= 4 on line 0 reproduces; greedy halving should
        # settle on the smallest reachable witness.
        witness = shrink_volley(
            (100,), lambda v: not isinstance(v[0], Infinity) and v[0] >= 4
        )
        assert not isinstance(witness[0], Infinity)
        assert 4 <= witness[0] < 100

    def test_terminates_when_everything_reproduces(self):
        # Predicate always true: every line must settle at ∞ (the
        # strictly-monotone move order guarantees termination).
        assert shrink_volley((3, 0, 7), lambda v: True) == (INF, INF, INF)

    def test_noop_when_nothing_simplifies(self):
        original = (4, 2)
        assert shrink_volley(original, lambda v: v == original) == original


class TestNetworkShrinking:
    def layered(self, seed=5):
        return random_layered_network(
            seed=seed, n_inputs=3, n_layers=3, width=4, n_outputs=2
        )

    def test_restrict_to_output_keeps_terminals(self):
        net = self.layered()
        out = net.output_names[0]
        cone = restrict_to_output(net, out)
        assert cone.output_names == [out]
        assert cone.input_names == net.input_names
        assert len(cone.nodes) <= len(net.nodes)

    def test_restrict_to_output_preserves_semantics(self):
        net = self.layered()
        out = net.output_names[0]
        cone = restrict_to_output(net, out)
        volley = (0, 3, INF)
        full = evaluate(net, dict(zip(net.input_names, volley)))
        sliced = evaluate(cone, dict(zip(cone.input_names, volley)))
        assert sliced[out] == full[out]

    def test_restrict_rejects_unknown_output(self):
        with pytest.raises(ValueError, match="no output named"):
            restrict_to_output(self.layered(), "nope")

    def test_shrink_network_reaches_trivial_core(self):
        # Predicate: output 0 is finite on the witness.  Almost any
        # subnetwork keeps that true, so shrinking should collapse the
        # DAG close to a bare wire.
        net = self.layered(seed=7)
        out = net.output_names[0]
        volley = (0, 0, 0)

        def predicate(candidate, v):
            values = evaluate(candidate, dict(zip(candidate.input_names, v)))
            return not isinstance(values[out], Infinity)

        cone = restrict_to_output(net, out)
        if not predicate(cone, volley):
            pytest.skip("seed produced a silent output; predicate vacuous")
        shrunk = shrink_network(cone, volley, predicate)
        assert len(shrunk.nodes) < len(cone.nodes)
        assert predicate(shrunk, volley)
        # 1-minimality spot check: terminals plus at most a couple of
        # compute nodes survive a predicate this weak.
        compute = [n for n in shrunk.nodes if not n.is_terminal]
        assert len(compute) <= 2

    def test_minimize_case_requires_live_witness(self):
        net = self.layered()
        with pytest.raises(ValueError, match="does not hold"):
            minimize_case(net, (0, 0, 0), lambda n, v: False)

    def test_minimize_case_volley_only_mode(self):
        net = self.layered(seed=9)
        original_print = net.fingerprint()
        shrunk_net, witness = minimize_case(
            net, (5, 9, 2), lambda n, v: True, shrink_structure=False
        )
        assert shrunk_net.fingerprint() == original_print
        assert witness == (INF, INF, INF)


class TestEmission:
    def test_format_volley_roundtrips(self):
        rendered = format_volley((0, INF, 17))
        assert eval(rendered, {"INF": INF}) == (0, INF, 17)
        # single-line volleys keep the trailing comma (a real tuple)
        assert eval(format_volley((INF,)), {"INF": INF}) == (INF,)

    def test_regression_test_executes(self):
        b = NetworkBuilder("tiny")
        x, y = b.inputs("x", "y")
        b.output("z", b.min(x, y))
        module = emit_regression_test(
            b.build(), (3, INF), title="tiny_case", provenance="unit test"
        )
        namespace = {}
        exec(compile(module, "<emitted>", "exec"), namespace)
        namespace["test_tiny_case"]()  # healthy tree: backends agree

    def test_regression_test_carries_params(self):
        b = NetworkBuilder("gated")
        b.output("y", b.gate(b.input("x"), b.param("mu")))
        module = emit_regression_test(
            b.build(), (3,), params={"mu": INF}, title="gated_case"
        )
        assert "'mu': INF" in module
        namespace = {}
        exec(compile(module, "<emitted>", "exec"), namespace)
        namespace["test_gated_case"]()

    def test_mutant_test_pins_disagreement(self):
        b = NetworkBuilder("orig")
        x, y = b.inputs("x", "y")
        b.output("z", b.min(x, y))
        original = b.build()

        b2 = NetworkBuilder("mut")
        x, y = b2.inputs("x", "y")
        b2.output("z", b2.max(x, y))
        mutant = b2.build()

        witness = (1, 4)
        healthy = saturate_outputs(
            InterpretedEngine().run(original, [witness])[0]
        )
        broken = saturate_outputs(InterpretedEngine().run(mutant, [witness])[0])
        assert healthy != broken  # sanity: the witness separates them

        module = emit_mutant_test(
            original, mutant, witness, title="swap_killed"
        )
        namespace = {}
        exec(compile(module, "<emitted>", "exec"), namespace)
        namespace["test_swap_killed"]()
