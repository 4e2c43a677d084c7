"""Tests for semantics-preserving network optimization.

The IR pass pipeline (:func:`repro.ir.optimize_program`) rewrites a
network; these tests raise its output back to a ``Network`` and check
the block counts (``.size``) and the exact semantics.
"""

import random

import pytest

from repro.core.function import enumerate_domain
from repro.core.synthesis import max_from_min_lt, synthesize
from repro.core.table import FIG7_TABLE, NormalizedTable
from repro.core.value import INF
from repro.network.builder import NetworkBuilder
from repro.ir import optimize_program
from repro.network.simulator import evaluate


def optimized_network(network):
    """The pass pipeline's output, raised back to a ``Network``."""
    return optimize_program(network)[0].to_network()


def assert_equivalent(original, optimized, *, window=4, params=None):
    names = original.input_names
    assert optimized.input_names == names
    assert optimized.output_names == original.output_names
    for vec in enumerate_domain(len(names), window):
        bound = dict(zip(names, vec))
        assert evaluate(optimized, bound, params=params) == evaluate(
            original, bound, params=params
        ), vec


class TestRewrites:
    def test_cse_merges_duplicates(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("a", b.min(x, y))
        b.output("b", b.min(x, y))
        net = b.build()
        optimized = optimized_network(net)
        assert optimized.size == 1
        assert net.size - optimized.size == 1
        assert_equivalent(net, optimized)

    def test_min_max_source_order_normalized(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("a", b.min(x, y))
        b.output("b", b.min(y, x))
        optimized = optimized_network(b.build())
        assert optimized.size == 1

    def test_lt_not_commutative(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("a", b.lt(x, y))
        b.output("b", b.lt(y, x))
        net = b.build()
        optimized = optimized_network(net)
        assert optimized.size == 2  # must NOT merge
        assert_equivalent(net, optimized)

    def test_inc_chain_fusion(self):
        b = NetworkBuilder()
        x = b.input("x")
        b.output("y", b.inc(b.inc(b.inc(x, 1), 2), 3))
        net = b.build()
        optimized = optimized_network(net)
        assert optimized.size == 1
        assert optimized.nodes[1].amount == 6
        assert_equivalent(net, optimized)

    def test_duplicate_min_sources_deduplicated(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("o", b.min(x, x, y, y))
        net = b.build()
        optimized = optimized_network(net)
        assert len(optimized.nodes[optimized.outputs["o"]].sources) == 2
        assert_equivalent(net, optimized)

    def test_lt_self_race_becomes_never(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        never = b.lt(x, x)
        b.output("o", b.min(never, y))  # min absorbs never -> just y
        net = b.build()
        optimized = optimized_network(net)
        assert_equivalent(net, optimized)
        # o should collapse to the input wire y (passthrough).
        assert optimized.nodes[optimized.outputs["o"]].kind == "input"

    def test_max_with_never_is_never(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("o", b.max(b.lt(x, x), y))
        net = b.build()
        optimized = optimized_network(net)
        assert_equivalent(net, optimized)
        bound = {"x": 0, "y": 0}
        assert evaluate(optimized, bound)["o"] is INF

    def test_lt_against_never_passes_through(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("o", b.lt(y, b.lt(x, x)))
        net = b.build()
        optimized = optimized_network(net)
        assert_equivalent(net, optimized)

    def test_never_output_materialized(self):
        b = NetworkBuilder()
        x = b.input("x")
        b.output("o", b.lt(x, x))
        net = b.build()
        optimized = optimized_network(net)
        assert evaluate(optimized, {"x": 3})["o"] is INF
        assert evaluate(optimized, {"x": INF})["o"] is INF


class TestOnRealConstructions:
    def test_fig7_synthesis_shrinks_and_stays_exact(self):
        net = synthesize(FIG7_TABLE)
        optimized = optimized_network(net)
        assert optimized.size < net.size
        assert_equivalent(net, optimized, window=4)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_tables(self, seed):
        table = NormalizedTable.random(
            3, window=3, n_rows=6, rng=random.Random(seed)
        )
        net = synthesize(table)
        optimized = optimized_network(net)
        assert_equivalent(net, optimized, window=table.max_entry() + 1)

    def test_lemma2_already_minimal(self):
        net = max_from_min_lt()
        optimized = optimized_network(net)
        assert optimized.size == net.size
        assert_equivalent(net, optimized, window=5)

    def test_srm0_network_optimizes(self):
        from repro.neuron.response import ResponseFunction
        from repro.neuron.srm0_network import build_srm0_from_weights

        base = ResponseFunction.piecewise_linear(amplitude=2, rise=1, fall=3)
        net = build_srm0_from_weights([2, 2], threshold=3, base_response=base)
        optimized = optimized_network(net)
        assert optimized.size <= net.size
        assert_equivalent(net, optimized, window=4)

    def test_params_preserved(self):
        b = NetworkBuilder()
        x = b.input("x")
        mu = b.param("mu")
        b.output("o", b.gate(b.inc(b.inc(x, 1), 1), mu))
        net = b.build()
        optimized = optimized_network(net)
        assert optimized.param_names == ["mu"]
        for value in (0, INF):
            for t in (0, 3, INF):
                assert evaluate(optimized, {"x": t}, params={"mu": value}) == evaluate(
                    net, {"x": t}, params={"mu": value}
                )

    def test_report_str(self):
        net = synthesize(FIG7_TABLE)
        _, report = optimize_program(net)
        assert "nodes" in str(report)
        assert 0 < report.removed <= report.before_nodes
