"""Tests for the batch plan's arena lowering and its NumPy executor.

The compiled plan is specified by the interpreted evaluator: on every
network and every encoded volley matrix the two must agree exactly —
the cross-family property sweep lives in
``tests/testing/test_native_properties.py``; here the unit tests pin
the kernel lowering, the scratch pool, and the trace semantics.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.value import INF
from repro.ir import optimize_program
from repro.network.builder import NetworkBuilder
from repro.network.compile_plan import (
    INF_I64,
    CompiledPlan,
    _ReduceKernel,
    compile_plan,
    decode_matrix,
    evaluate_batch,
)
from repro.network.graph import Network, NetworkError
from repro.network.simulator import evaluate_all_interpreted
from repro.obs import reset_metrics
from repro.obs.metrics import METRICS


def diamond():
    b = NetworkBuilder("diamond")
    x, y = b.inputs("x", "y")
    fast = b.inc(b.min(x, y), 1)
    slow = b.inc(b.max(x, y), 3)
    b.output("first", b.lt(fast, slow))
    b.output("joined", b.min(fast, slow))
    return b.build()


def ragged_net():
    """Same-level min group with mixed arity — padded to one rectangle."""
    b = NetworkBuilder("ragged")
    x, y, z = b.inputs("x", "y", "z")
    b.output("pair", b.min(x, y))
    b.output("triple", b.min(x, y, z))
    b.output("wide", b.max(x, y, z))
    b.output("zero", b.max())  # const-0 fill
    b.output("never", b.min())  # const-∞ fill
    return b.build()


def interpreted(network, volleys, params=None):
    """Reference outputs, sentinel-encoded like the batch engine's."""
    rows = []
    for volley in volleys:
        values = evaluate_all_interpreted(
            network, dict(zip(network.input_names, volley)), params=params
        )
        rows.append(
            [INF_I64 if values[i] is INF else values[i] for i in network.outputs.values()]
        )
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), len(network.outputs))


class TestLowering:
    def test_kernel_count_is_group_count_not_node_count(self):
        plan = CompiledPlan(diamond())
        # 2 inputs + 6 compute nodes, but fused to one kernel per
        # (level, kind) bucket: min, max, 2×inc (one level), lt, min.
        assert plan.n_nodes == 8
        assert 1 <= len(plan.kernels) <= 6

    def test_describe_lists_kernels(self):
        text = CompiledPlan(ragged_net()).describe()
        assert "arena rows" in text
        assert "const" in text and "min" in text and "max" in text

    def test_const_fills_cover_identities(self):
        plan = CompiledPlan(ragged_net())
        values = {f.value for f in plan.const_fills}
        assert values == {0, INF_I64}

    def test_ragged_group_pads_to_uniform_kernel(self):
        plan = CompiledPlan(ragged_net())
        mins = [k for k in plan.kernels if isinstance(k, _ReduceKernel) and k.is_min]
        assert len(mins) == 1 and mins[0].k == 3
        # min(x, y) is padded with its own first source: min(x, y, x).
        pair = mins[0].srcs.reshape(-1, 3)
        assert any(row[0] == row[2] != row[1] for row in pair.tolist())

    def test_uniform_group_uses_rectangular_kernel(self):
        plan = CompiledPlan(diamond())
        assert any(isinstance(k, _ReduceKernel) for k in plan.kernels)

    def test_plan_lives_on_the_network(self):
        net = diamond()
        plan = compile_plan(net)
        assert compile_plan(net) is plan is net._plan
        assert compile_plan(Network(net.nodes, net.outputs)) is not plan

    def test_accepts_optimized_program(self):
        program, _report = optimize_program(ragged_net())
        plan = CompiledPlan(program)
        matrix = np.array([[0, 2, INF_I64]], dtype=np.int64)
        np.testing.assert_array_equal(
            plan.outputs(matrix), interpreted(program, [(0, 2, INF)])
        )


class TestExecution:
    CASES = [
        [(0, 1), (2, 3), (INF, 0), (INF, INF), (5, 5)],
    ]

    def test_outputs_match_interpreted(self):
        net = diamond()
        for volleys in self.CASES:
            np.testing.assert_array_equal(
                evaluate_batch(net, volleys), interpreted(net, volleys)
            )

    def test_run_returns_node_order_values(self):
        net = diamond()
        plan = compile_plan(net)
        values = evaluate_all_interpreted(net, {"x": 2, "y": 5})
        expected = [INF_I64 if v is INF else v for v in values]
        np.testing.assert_array_equal(
            plan.run(np.array([[2, 5]], dtype=np.int64))[0], expected
        )

    def test_empty_batch(self):
        net = diamond()
        out = evaluate_batch(net, np.zeros((0, 2), dtype=np.int64))
        assert out.shape == (0, 2)

    def test_missing_params_rejected(self):
        b = NetworkBuilder()
        x = b.input("x")
        w = b.param("w")
        b.output("y", b.min(x, w))
        net = b.build()
        with pytest.raises(NetworkError, match="params"):
            compile_plan(net).outputs(np.zeros((1, 1), dtype=np.int64))

    def test_params_bound(self):
        b = NetworkBuilder()
        x = b.input("x")
        w = b.param("w")
        b.output("y", b.min(x, w))
        net = b.build()
        assert decode_matrix(evaluate_batch(net, [(4,)], params={"w": INF})) == [(4,)]
        assert decode_matrix(evaluate_batch(net, [(4,)], params={"w": 0})) == [(0,)]

    def test_warm_counts(self):
        reset_metrics()
        CompiledPlan(diamond()).warm()
        assert METRICS.counter("plan.warmups") == 1


def random_matrix(batch, arity, seed):
    """A seeded encoded volley matrix with some silent (``∞``) lines."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 9, size=(batch, arity), dtype=np.int64)
    matrix[rng.random((batch, arity)) < 0.25] = INF_I64
    return matrix


class TestScratchPool:
    """Every batch size runs on a prefix of one grow-only scratch set."""

    def test_sweep_keeps_one_set_sized_for_the_largest_batch(self):
        plan = CompiledPlan(ragged_net())
        reset_metrics()
        for batch in range(1, 65):
            plan.outputs(random_matrix(batch, 3, batch))
        [scratch] = plan._pool
        assert scratch[0].size == plan.n_cols * 64
        assert scratch[1].size == plan.max_gather * 64
        assert METRICS.maximum("plan.scratch_bytes") == sum(
            buf.nbytes for buf in scratch[:4]
        )
        allocs = METRICS.counter("plan.scratch.allocs")
        for batch in range(1, 65):
            plan.outputs(random_matrix(batch, 3, batch))
        assert METRICS.counter("plan.scratch.allocs") == allocs
        assert plan._pool == [scratch]

    def test_interleaved_batch_sizes_match_interpreted(self):
        # ragged_net has const-0 and const-∞ rows, which sit at different
        # flat offsets for every batch size, so each size change refills them.
        net = ragged_net()
        plan = CompiledPlan(net)
        for step, batch in enumerate((5, 3, 64, 1, 5)):
            matrix = random_matrix(batch, 3, step)
            np.testing.assert_array_equal(
                plan.outputs(matrix), interpreted(net, decode_matrix(matrix))
            )

    def test_concurrent_batch_sizes_are_byte_identical(self):
        program, _report = optimize_program(ragged_net())
        plan = CompiledPlan(program)
        sizes = (1, 7, 32, 64)
        matrices = {batch: random_matrix(batch, 3, batch) for batch in sizes}
        expected = {batch: plan.outputs(m).tobytes() for batch, m in matrices.items()}
        barrier = threading.Barrier(len(sizes))

        def hammer(batch):
            barrier.wait()
            return [plan.outputs(matrices[batch]).tobytes() for _ in range(200)]

        with ThreadPoolExecutor(len(sizes)) as pool:
            results = dict(zip(sizes, pool.map(hammer, sizes)))
        for batch in sizes:
            assert set(results[batch]) == {expected[batch]}
        assert 1 <= len(plan._pool) <= 4


class TestTrace:
    def test_compiled_trace_matches_interpreted(self):
        from repro.runtime.engines import CompiledBatchEngine, InterpretedEngine

        net = ragged_net()
        volley = (0, 3, INF)
        assert CompiledBatchEngine().trace(net, volley) == InterpretedEngine().trace(
            net, volley
        )
