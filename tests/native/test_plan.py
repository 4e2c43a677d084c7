"""Tests for the batch plan's arena lowering and its two executors.

The compiled plan is specified by the interpreted evaluator: on every
network and every encoded volley matrix the two must agree exactly —
the cross-family property sweep lives in
``tests/testing/test_native_properties.py``; here the unit tests pin
the kernel lowering, the executor switch (``REPRO_NATIVE``), the scratch
pool, the plan cache, and the trace semantics.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.value import INF
from repro.ir import lower, optimize_program
from repro.native import jit as native_jit
from repro.native import native_mode
from repro.network.builder import NetworkBuilder
from repro.network.compile_plan import (
    INF_I64,
    CompiledPlan,
    _ReduceKernel,
    compile_plan,
    decode_matrix,
    evaluate_batch,
)
from repro.network.graph import NetworkError
from repro.network.serialize import dumps, loads
from repro.network.simulator import evaluate_all_interpreted
from repro.obs import reset_metrics
from repro.obs.metrics import METRICS
from repro.runtime import cache_info, clear_caches
from repro.runtime.cache import PLAN_CACHE, PlanCacheTier


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


@pytest.fixture
def numba_mode(monkeypatch):
    """Force the row-interpreter path (pure-Python when Numba is absent)."""
    monkeypatch.setattr(native_jit, "NUMBA_AVAILABLE", True)
    monkeypatch.setenv("REPRO_NATIVE", "numba")


class TestModeSelection:
    def test_default_is_numpy_without_numba(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        if not native_jit.NUMBA_AVAILABLE:
            assert native_mode() == "numpy"

    def test_numpy_forced(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "numpy")
        assert native_mode() == "numpy"

    def test_numba_without_numba_falls_back_counted(self, monkeypatch):
        monkeypatch.setattr(native_jit, "NUMBA_AVAILABLE", False)
        monkeypatch.setenv("REPRO_NATIVE", "numba")
        before = METRICS.counter("native.fallbacks")
        assert native_mode() == "numpy"
        assert METRICS.counter("native.fallbacks") == before + 1

    def test_numba_selected_when_available(self, numba_mode):
        assert native_mode() == "numba"

    def test_invalid_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "cuda")
        with pytest.raises(NetworkError, match="REPRO_NATIVE"):
            native_mode()


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

    def test_accepts_optimized_program(self):
        program, _report = optimize_program(lower(ragged_net()))
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

    def test_rows_interpreter_matches_compiled(self, numba_mode):
        net = ragged_net()
        volleys = [(0, 1, 2), (INF, INF, INF), (7, 7, 7), (0, INF, 3)]
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

    @pytest.mark.parametrize("mode", ["numpy", "numba"])
    def test_interleaved_batch_sizes_match_interpreted(self, mode, monkeypatch):
        # ragged_net has const-0 and const-∞ rows, which sit at different
        # flat offsets for every batch size and layout.  "numba" selects
        # the row layout (the pure-Python interpreter without Numba).
        monkeypatch.setattr(native_jit, "native_mode", lambda: mode)
        net = ragged_net()
        plan = CompiledPlan(net)
        for step, batch in enumerate((5, 3, 64, 1, 5)):
            matrix = random_matrix(batch, 3, step)
            np.testing.assert_array_equal(
                plan.outputs(matrix), interpreted(net, decode_matrix(matrix))
            )

    def test_layouts_alternate_on_one_set(self, monkeypatch):
        net = ragged_net()
        plan = CompiledPlan(net)
        matrix = random_matrix(5, 3, 0)
        expected = interpreted(net, decode_matrix(matrix))
        for mode in ("numpy", "numba", "numpy", "numba"):
            monkeypatch.setattr(native_jit, "native_mode", lambda: mode)
            np.testing.assert_array_equal(plan.outputs(matrix), expected)
        assert len(plan._pool) == 1

    def test_concurrent_batch_sizes_are_byte_identical(self):
        program, _report = optimize_program(lower(ragged_net()))
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
    def test_sink_trace_matches_interpreted(self):
        from repro.runtime.engines import CompiledBatchEngine, InterpretedEngine

        net = ragged_net()
        volley = (0, 3, INF)
        assert CompiledBatchEngine().trace(net, volley) == InterpretedEngine().trace(
            net, volley
        )

    def test_disabled_sink_skips_trace_path(self):
        from repro.obs.trace import RecordingSink

        sink = RecordingSink()
        sink.enabled = False
        out = evaluate_batch(diamond(), [(0, 1)], sink=sink)
        assert sink.canonical() == []
        assert out.shape == (1, 2)


class TestNativePlanCache:
    def setup_method(self):
        clear_caches(results=False)

    def teardown_method(self):
        clear_caches(results=False)

    def test_identity_memoized(self):
        net = diamond()
        assert compile_plan(net) is compile_plan(net)

    def test_structural_twins_share_one_plan(self):
        net = diamond()
        twin = loads(dumps(net))
        assert twin is not net
        assert compile_plan(twin) is compile_plan(net)

    def test_hit_miss_counters(self):
        reset_metrics()
        net = diamond()
        compile_plan(net)  # miss
        compile_plan(net)  # identity hit
        compile_plan(loads(dumps(net)))  # structural hit
        info = cache_info()["plan"]
        assert info["misses"] == 1
        assert info["hits_identity"] == 1
        assert info["hits_structural"] == 1

    def test_lru_eviction(self, monkeypatch):
        reset_metrics()
        monkeypatch.setattr(PLAN_CACHE, "limit", 1)
        compile_plan(diamond())
        compile_plan(ragged_net())
        info = cache_info()["plan"]
        assert info["entries"] == 1
        assert info["evictions"] == 1

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            PlanCacheTier(limit=0)

    def test_clear(self):
        compile_plan(diamond())
        clear_caches(results=False)
        assert cache_info()["plan"]["entries"] == 0
