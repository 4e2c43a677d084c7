"""Tests for the compiled batched evaluation engine.

The batched engine is specified by the interpreted evaluator
(:func:`repro.network.simulator.evaluate_all_interpreted`): on every
network and every volley matrix the two must agree exactly, including
∞-heavy inputs and ``inc`` chains that saturate against the int64
sentinel.  The property tests here state that agreement over random
structures; the unit tests pin the encoding, plan ownership, and the
error-message parity of the thin scalar wrappers.
"""

import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.value import INF, Infinity
from repro.ir import optimize_program
from repro.ir.sorters import group_sorters
from repro.network.builder import NetworkBuilder
from repro.network.compile_plan import (
    INF_I64,
    MAX_FINITE,
    CompiledPlan,
    _ReduceKernel,
    compile_plan,
    decode_matrix,
    decode_time,
    encode_time,
    encode_volleys,
    evaluate_batch,
    evaluate_batch_all,
)
from repro.network.generate import random_network, random_volley
from repro.network.graph import NetworkError
from repro.network.serialize import dumps, loads
from repro.network.simulator import (
    evaluate,
    evaluate_all,
    evaluate_all_interpreted,
    evaluate_vector,
)
from repro.serve.demo import demo_column

times = st.one_of(st.integers(min_value=0, max_value=30), st.just(INF))


def interpreted_outputs(network, volley):
    values = evaluate_all_interpreted(
        network, dict(zip(network.input_names, volley))
    )
    return tuple(values[node_id] for node_id in network.outputs.values())


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

class TestEncoding:
    def test_encode_decode_roundtrip(self):
        for value in (0, 1, 17, MAX_FINITE, INF):
            assert decode_time(encode_time(value)) == value

    def test_inf_is_sentinel(self):
        assert encode_time(INF) == INF_I64
        assert decode_time(INF_I64) is INF

    def test_finite_time_above_limit_rejected(self):
        with pytest.raises(NetworkError, match="exceeds the batched engine"):
            encode_time(INF_I64)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            encode_time(-1)

    def test_encode_volleys_from_tuples(self):
        matrix = encode_volleys([(0, INF), (3, 4)])
        assert matrix.dtype == np.int64
        assert matrix.shape == (2, 2)
        assert matrix[0, 1] == INF_I64

    def test_encode_volleys_passes_ndarray_through(self):
        raw = np.array([[1, 2], [3, INF_I64]], dtype=np.int64)
        assert encode_volleys(raw) is not None
        np.testing.assert_array_equal(encode_volleys(raw), raw)

    def test_encode_volleys_rejects_ragged(self):
        with pytest.raises(NetworkError, match="ragged"):
            encode_volleys([(1, 2), (1, 2, 3)])

    def test_encode_volleys_rejects_wrong_arity(self):
        with pytest.raises(NetworkError, match="expected volleys of 3"):
            encode_volleys([(1, 2)], arity=3)

    def test_encode_volleys_rejects_negative_matrix(self):
        with pytest.raises(NetworkError, match="negative"):
            encode_volleys(np.array([[-1, 0]], dtype=np.int64))

    def test_encode_volleys_rejects_float_matrix(self):
        with pytest.raises(NetworkError, match="integer dtype"):
            encode_volleys(np.array([[1.0, 2.0]]))

    def test_decode_matrix(self):
        matrix = np.array([[0, INF_I64]], dtype=np.int64)
        assert decode_matrix(matrix) == [(0, INF)]


# ---------------------------------------------------------------------------
# The batch API against hand-computed semantics
# ---------------------------------------------------------------------------

def diamond():
    b = NetworkBuilder("diamond")
    x, y = b.inputs("x", "y")
    b.output("z", b.lt(b.min(x, y), b.max(x, y)))
    return b.build()


class TestEvaluateBatch:
    def test_diamond_batch(self):
        out = evaluate_batch(diamond(), [(2, 7), (4, 4), (INF, 1)])
        assert decode_matrix(out) == [(2,), (INF,), (1,)]

    def test_output_column_order_matches_declaration(self):
        b = NetworkBuilder("two-out")
        x, y = b.inputs("x", "y")
        b.output("hi", b.max(x, y))
        b.output("lo", b.min(x, y))
        net = b.build()
        assert decode_matrix(evaluate_batch(net, [(2, 7)])) == [(7, 2)]

    def test_batch_all_exposes_every_node(self):
        net = diamond()
        matrix = evaluate_batch_all(net, [(2, 7)])
        assert matrix.shape == (1, len(net.nodes))
        assert matrix[0, net.input_ids["x"]] == 2

    def test_batch_dicts(self):
        net = diamond()
        rows = decode_matrix(evaluate_batch(net, [(2, 7), (4, 4)]))
        assert [dict(zip(net.output_names, row)) for row in rows] == [
            {"z": 2},
            {"z": INF},
        ]

    def test_params_batched(self):
        b = NetworkBuilder("gated")
        x = b.input("x")
        mu = b.param("mu")
        b.output("y", b.gate(x, mu))
        net = b.build()
        enabled = evaluate_batch(net, [(3,), (5,)], params={"mu": INF})
        disabled = evaluate_batch(net, [(3,), (5,)], params={"mu": 0})
        assert decode_matrix(enabled) == [(3,), (5,)]
        assert decode_matrix(disabled) == [(INF,), (INF,)]

    def test_unbound_params_rejected(self):
        b = NetworkBuilder("gated")
        b.output("y", b.gate(b.input("x"), b.param("mu")))
        with pytest.raises(NetworkError, match="unbound params"):
            evaluate_batch(b.build(), [(3,)])

    def test_bad_param_value_rejected(self):
        b = NetworkBuilder("gated")
        b.output("y", b.gate(b.input("x"), b.param("mu")))
        with pytest.raises(NetworkError, match="must be 0 or INF"):
            evaluate_batch(b.build(), [(3,)], params={"mu": 5})

    def test_empty_batch(self):
        out = evaluate_batch(diamond(), np.empty((0, 2), dtype=np.int64))
        assert out.shape == (0, 1)


# ---------------------------------------------------------------------------
# inc saturation against the sentinel
# ---------------------------------------------------------------------------

class TestIncSaturation:
    def chain(self, amounts):
        b = NetworkBuilder("chain")
        wire = b.input("x")
        for amount in amounts:
            wire = b.inc(wire, amount)
        b.output("y", wire)
        return b.build()

    def test_inf_stays_inf(self):
        out = evaluate_batch(self.chain([3, 5]), [(INF,)])
        assert out[0, 0] == INF_I64

    def test_near_sentinel_saturates_to_inf(self):
        # MAX_FINITE + 3 would pass the sentinel: the engine saturates to
        # ∞ rather than wrapping (the scalar wrapper would instead fall
        # back to the interpreted big-int path for such inputs).
        out = evaluate_batch(self.chain([3]), np.array([[MAX_FINITE]], dtype=np.int64))
        assert out[0, 0] == INF_I64

    def test_exactly_reaching_sentinel_saturates(self):
        out = evaluate_batch(
            self.chain([1]), np.array([[MAX_FINITE]], dtype=np.int64)
        )
        assert out[0, 0] == INF_I64

    def test_just_below_sentinel_stays_finite(self):
        out = evaluate_batch(
            self.chain([3]), np.array([[MAX_FINITE - 3]], dtype=np.int64)
        )
        assert out[0, 0] == MAX_FINITE

    def test_no_overflow_on_stacked_incs(self):
        out = evaluate_batch(
            self.chain([7, 11, 13]), np.array([[MAX_FINITE]], dtype=np.int64)
        )
        assert out[0, 0] == INF_I64


# ---------------------------------------------------------------------------
# Property: batch == interpreted scalar semantics
# ---------------------------------------------------------------------------

class TestBatchMatchesInterpreted:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        volley_seed=st.integers(min_value=0, max_value=10_000),
        silence=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_networks_random_volleys(self, seed, volley_seed, silence):
        network = random_network(
            n_inputs=3, n_blocks=15, n_outputs=2, seed=seed
        )
        rng = random.Random(volley_seed)
        volleys = [
            random_volley(3, rng=rng, silence_probability=silence)
            for _ in range(5)
        ]
        got = decode_matrix(evaluate_batch(network, volleys))
        want = [interpreted_outputs(network, v) for v in volleys]
        assert got == want

    @given(data=st.data(), seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_inf_heavy_and_structured_volleys(self, data, seed):
        network = random_network(
            n_inputs=4, n_blocks=25, n_outputs=3, seed=seed
        )
        volley = tuple(data.draw(times) for _ in range(4))
        got = decode_matrix(evaluate_batch(network, [volley]))[0]
        assert got == interpreted_outputs(network, volley)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_scalar_wrapper_matches_batch(self, seed):
        # evaluate/evaluate_all are B=1 wrappers: same numbers, same net.
        network = random_network(n_inputs=3, n_blocks=12, seed=seed)
        volley = random_volley(3, rng=random.Random(seed))
        bound = dict(zip(network.input_names, volley))
        scalar = evaluate(network, bound)
        row = decode_matrix(evaluate_batch(network, [volley]))[0]
        batch = dict(zip(network.output_names, row))
        assert scalar == batch

    def test_scalar_wrapper_big_int_fallback(self):
        # Finite times beyond the engine's int64 range route through the
        # interpreted evaluator transparently.
        b = NetworkBuilder("big")
        b.output("y", b.inc(b.input("x"), 5))
        net = b.build()
        huge = INF_I64  # too large for the batched path
        assert evaluate(net, {"x": huge})["y"] == huge + 5
        assert evaluate(net, {"x": INF})["y"] is INF


# ---------------------------------------------------------------------------
# Plan structure and fusion
# ---------------------------------------------------------------------------

class TestPlanStructure:
    def test_same_level_same_kind_fuses(self):
        # Four independent incs at level 1 become one instruction.
        b = NetworkBuilder("wide")
        xs = [b.input(f"x{i}") for i in range(4)]
        b.output("y", b.min(*[b.inc(x, i + 1) for i, x in enumerate(xs)]))
        plan = compile_plan(b.build())
        assert plan.n_instructions == 2  # fused incs + the min

    def test_describe_mentions_each_group(self):
        plan = compile_plan(diamond())
        text = plan.describe()
        assert "min" in text and "max" in text and "lt" in text

    def test_describe_golden(self):
        # The exact rendering is a debugging/reporting surface other
        # tooling greps; lock it down so format drift is a conscious act.
        b = NetworkBuilder("golden")
        x, y = b.inputs("x", "y")
        always = b.max()
        b.min()  # the constant ∞
        m = b.min(b.inc(x, 3), y)
        top = b.max(m, always)
        b.output("race", b.lt(m, top))
        b.output("m", top)
        plan = compile_plan(b.build())
        assert plan.describe() == (
            "plan: 8 nodes -> 8 arena rows, 4 kernel(s), 2 const fill(s)\n"
            "  const(∞) rows 2:3\n"
            "  const(0) rows 3:4\n"
            "  inc       x1\n"
            "  min       x1 (arity=2)\n"
            "  max       x1 (arity=2)\n"
            "  lt        x1"
        )

    def test_run_requires_params_when_declared(self):
        b = NetworkBuilder("gated")
        b.output("y", b.gate(b.input("x"), b.param("mu")))
        plan = compile_plan(b.build())
        with pytest.raises(NetworkError, match="none bound"):
            plan.run(np.zeros((1, 1), dtype=np.int64))


# ---------------------------------------------------------------------------
# Mixed-arity padding
# ---------------------------------------------------------------------------

def mixed_arity_net():
    """One level of min/max nodes with arity 1, 2 and 5.

    Includes a repeated source (``min(x, x, y)`` after padding stays a
    two-input min) and an all-∞ source: ``never`` is the constant ``∞``
    of a zero-source min, so it feeds every reduction an infinite line.
    """
    b = NetworkBuilder("mixed-arity")
    x, y, z, w = b.inputs("x", "y", "z", "w")
    never = b.min()
    b.output("one", b.min(x))
    b.output("two", b.min(x, never))
    b.output("five", b.min(y, x, y, z, never))
    b.output("max_one", b.max(w))
    b.output("max_two", b.max(z, z))
    b.output("max_five", b.max(x, y, z, w, never))
    return b.build()


class TestMixedArityPadding:
    """Padding a mixed-arity group by repeating a source is exact."""

    def test_plan_has_only_uniform_reduce_kernels(self):
        plan = compile_plan(mixed_arity_net())
        reduces = [k for k in plan.kernels if isinstance(k, _ReduceKernel)]
        # One kernel per (level, kind): the mins and the maxes.
        assert sorted((k.is_min, k.k) for k in reduces) == [(False, 5), (True, 5)]
        for kernel in reduces:
            assert kernel.srcs.shape == ((kernel.hi - kernel.lo) * kernel.k,)

    @pytest.mark.parametrize("batch", [1, 3, 1024])
    def test_matches_interpreted_byte_for_byte(self, batch):
        net = mixed_arity_net()
        rng = random.Random(batch)
        volleys = [
            tuple(INF if rng.random() < 0.3 else rng.randint(0, 9) for _ in range(4))
            for _ in range(batch)
        ]
        volleys[0] = (INF, INF, INF, INF)
        got = decode_matrix(evaluate_batch(net, volleys))
        assert got == [interpreted_outputs(net, v) for v in volleys]

    def test_wide_batch_trace_row_matches_single_row(self):
        from repro.obs.trace import spike_trace

        net = diamond()
        matrix = encode_volleys([(0, 1)] * 3 + [(4, 2)] * 5, arity=2)
        plan = compile_plan(net)
        wide = spike_trace(net, plan.run(matrix)[3])
        assert wide == spike_trace(net, plan.run(matrix[3:4])[0])
        assert wide != spike_trace(net, plan.run(matrix[2:3])[0])


# ---------------------------------------------------------------------------
# Plan ownership: a program holds its plan, and nothing else does
# ---------------------------------------------------------------------------

def redundant():
    """A network the optimizer shrinks (``min(y, x)`` repeats ``min(x, y)``)."""
    b = NetworkBuilder("redundant")
    x, y = b.inputs("x", "y")
    b.output("z", b.lt(b.min(x, y), b.max(b.min(y, x), y)))
    return b.build()


class TestPlanCache:
    def test_identity_memoized(self):
        net = diamond()
        assert compile_plan(net) is compile_plan(net)

    def test_noop_optimization_shares_the_plan(self):
        net = diamond()
        program, report = optimize_program(net)
        assert report.removed == 0
        assert compile_plan(program) is compile_plan(net)

    def test_plan_dies_with_its_optimized_program(self):
        net = redundant()
        program, report = optimize_program(net)
        assert report.removed > 0
        plan = compile_plan(program)
        refs = weakref.ref(program), weakref.ref(plan)
        del net, program, plan
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_warmed_network_is_freed_by_its_last_reference(self):
        # The plan holds nothing of its network, so reference counting
        # alone frees the pair: unloading a model needs no gc.collect().
        network, volley = demo_column(0, smoke=True)
        program, _ = optimize_program(group_sorters(network))
        compile_plan(program).warm()
        evaluate_batch(program, [volley] * 4)
        refs = weakref.ref(program), weakref.ref(program._plan)
        gc.disable()
        try:
            del program
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_different_structures_get_different_plans(self):
        b = NetworkBuilder("other")
        x, y = b.inputs("x", "y")
        b.output("z", b.min(x, y))
        assert compile_plan(diamond()) is not compile_plan(b.build())


# ---------------------------------------------------------------------------
# Fingerprint (the served-model id)
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_stable_across_calls(self):
        net = diamond()
        assert net.fingerprint() == net.fingerprint()

    def test_serialization_roundtrip_preserves_fingerprint(self):
        net = random_network(n_inputs=3, n_blocks=20, n_outputs=2, seed=7)
        assert loads(dumps(net)).fingerprint() == net.fingerprint()

    def test_structural_change_changes_fingerprint(self):
        def build(amount):
            b = NetworkBuilder("n")
            b.output("y", b.inc(b.input("x"), amount))
            return b.build()

        assert build(1).fingerprint() != build(2).fingerprint()

    def test_terminal_names_matter(self):
        def build(name):
            b = NetworkBuilder("n")
            b.output("y", b.inc(b.input(name), 1))
            return b.build()

        assert build("x").fingerprint() != build("w").fingerprint()

    def test_output_declaration_order_matters(self):
        # Plans gather output columns in declaration order, so two nets
        # with the same outputs in different order must not share a plan.
        def build(flip):
            b = NetworkBuilder("n")
            x, y = b.inputs("x", "y")
            lo, hi = b.min(x, y), b.max(x, y)
            pairs = [("lo", lo), ("hi", hi)]
            for name, wire in reversed(pairs) if flip else pairs:
                b.output(name, wire)
            return b.build()

        assert build(False).fingerprint() != build(True).fingerprint()

    def test_network_name_does_not_matter(self):
        def build(name):
            b = NetworkBuilder(name)
            b.output("y", b.inc(b.input("x"), 1))
            return b.build()

        assert build("a").fingerprint() == build("b").fingerprint()

    def test_tags_do_not_matter(self):
        def build(tag):
            b = NetworkBuilder("n")
            b.output("y", b.inc(b.input("x"), 1, tag=tag))
            return b.build()

        assert build("early").fingerprint() == build("late").fingerprint()


# ---------------------------------------------------------------------------
# Zero-source min/max (the lattice identity constants)
# ---------------------------------------------------------------------------

class TestZeroSourceReductions:
    def build(self):
        from repro.network.graph import Network, Node

        nodes = (
            Node(0, "input", name="x"),
            Node(1, "min", sources=()),
            Node(2, "max", sources=()),
        )
        return Network(
            name="empties",
            nodes=nodes,
            outputs={"never": 1, "origin": 2, "echo": 0},
        )

    def test_batched_identities(self):
        out = evaluate_batch(self.build(), [(5,)])
        assert decode_matrix(out) == [(INF, 0, 5)]

    def test_scalar_wrapper_identities(self):
        out = evaluate_vector(self.build(), (5,))
        assert out["never"] is INF and out["origin"] == 0 and out["echo"] == 5

    def test_interpreted_identities(self):
        values = evaluate_all_interpreted(self.build(), {"x": 5})
        assert values[1] is INF and values[2] == 0
