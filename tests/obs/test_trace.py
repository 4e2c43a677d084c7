"""Tests for canonical spike tracing across all four backends."""

import json
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.core.synthesis import synthesize
from repro.core.table import FIG7_TABLE
from repro.core.value import INF, Infinity
from repro.network.builder import NetworkBuilder
from repro.network.compile_plan import (
    INF_I64,
    MAX_FINITE,
    compile_plan,
    encode_volleys,
)
from repro.network.simulator import evaluate_all_interpreted
from repro.obs.trace import (
    TraceEvent,
    first_divergence,
    from_jsonl,
    spike_trace,
    to_chrome_trace,
    to_jsonl,
)
from repro.runtime.engines import ENGINES
from repro.testing.generators import FAMILIES, generate_case

#: ``python -m repro trace --seed 0 --smoke --jsonl``, all four backends
#: agreeing; any change to a fire time or a cause shows up as a diff.
GOLDEN_SMOKE_TRACE = Path(__file__).parent / "data" / "trace_seed0_smoke.jsonl"


def _interpreted_trace(net, inputs):
    return spike_trace(net, evaluate_all_interpreted(net, inputs))


def _tiny_net():
    b = NetworkBuilder("tiny")
    x, y = b.inputs("x", "y")
    m = b.min(x, y)
    b.output("z", b.inc(m, 2))
    return b.build()


class TestCauses:
    def _events(self, net, inputs):
        return {e.node_id: e for e in _interpreted_trace(net, inputs)}

    def test_min_names_earliest_source(self):
        net = _tiny_net()
        events = self._events(net, {"x": 5, "y": 2})
        assert events[2].cause == "min<-1"  # y (node 1) wins
        assert events[2].time == 2

    def test_min_tie_names_lowest_id(self):
        net = _tiny_net()
        events = self._events(net, {"x": 3, "y": 3})
        assert events[2].cause == "min<-0"

    def test_inc_cause_carries_amount_and_source(self):
        net = _tiny_net()
        events = self._events(net, {"x": 1, "y": 4})
        assert events[3].cause == "inc+2<-2"
        assert events[3].time == 3

    def test_max_names_latest_source(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("m", b.max(x, y))
        events = self._events(b.build(), {"x": 5, "y": 2})
        assert events[2].cause == "max<-0"

    def test_max_with_absent_source_never_fires(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("m", b.max(x, y))
        events = self._events(b.build(), {"x": 5, "y": INF})
        assert 2 not in events

    def test_lt_fires_via_first_operand(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("z", b.lt(x, y))
        events = self._events(b.build(), {"x": 1, "y": 4})
        assert events[2].cause == "lt<-0"

    def test_all_inf_volley_is_an_empty_trace(self):
        net = _tiny_net()
        assert self._events(net, {"x": INF, "y": INF}) == {}

    def test_zero_source_max_is_const0(self):
        b = NetworkBuilder()
        b.input("x")
        b.output("zero", b.max())
        events = self._events(b.build(), {"x": INF})
        assert events[1].cause == "const0"
        assert events[1].time == 0


class TestSpikeTrace:
    def test_events_sort_by_time_then_node(self):
        net = _tiny_net()
        trace = _interpreted_trace(net, {"x": 4, "y": 0})
        assert [(e.time, e.node_id) for e in trace] == [
            (0, 1), (0, 2), (2, 3), (4, 0),
        ]

    def test_times_above_max_finite_are_silence(self):
        net = _tiny_net()
        trace = spike_trace(net, [MAX_FINITE, INF_I64, MAX_FINITE, INF_I64])
        assert trace == [
            TraceEvent(MAX_FINITE, 0, "input"),
            TraceEvent(MAX_FINITE, 2, "min<-0"),
        ]
        # The interpreted walk keeps arbitrary-precision ints past it.
        assert spike_trace(net, [MAX_FINITE, INF, MAX_FINITE, MAX_FINITE + 2]) == trace

    def test_golden_smoke_trace_bytes(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--seed", "0", "--smoke", "--jsonl", str(out)]) == 0
        assert "byte-identical across 4 backend(s)" in capsys.readouterr().out
        assert out.read_bytes() == GOLDEN_SMOKE_TRACE.read_bytes()

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        family=st.sampled_from([name for name, _weight in FAMILIES]),
        pick=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_engine_traces_the_interpreted_fire_times(self, seed, family, pick):
        """Each engine's trace is ``spike_trace`` over the reference fire
        times, on the near-sentinel volleys and one drawn volley, for
        every generator family (``sorters`` on its comparator-level
        program, which the compiled engine traces)."""
        case = generate_case(seed, smoke=True, family=family)
        net, params = case.network, case.params or None
        near_sentinel = [
            v for v in case.volleys
            if any(not isinstance(t, Infinity) and t > MAX_FINITE - 4 for t in v)
        ]
        assert near_sentinel
        for volley in [*near_sentinel, case.volleys[pick % len(case.volleys)]]:
            values = evaluate_all_interpreted(
                net, dict(zip(net.input_names, volley)), params=params
            )
            want = spike_trace(net, values)
            documents = set()
            for engine in ENGINES:
                trace = engine().trace(net, volley, params=params)
                if trace is None:
                    assert engine.cycle_accurate  # only GRL is partial
                    continue
                assert trace == want, (engine.name, volley)
                documents.add(to_jsonl(trace, net))
            assert documents == {to_jsonl(want, net)}


class TestCrossBackendIdentity:
    """The tentpole guarantee: byte-identical JSONL on agreement."""

    def _documents(self, net, volley, params=None):
        docs = {}
        for engine in ENGINES:
            trace = engine().trace(net, volley, params=params)
            if trace is not None:
                docs[engine.name] = to_jsonl(trace, net)
        return docs

    def test_fig7_network_all_four_backends(self):
        net = synthesize(FIG7_TABLE)
        docs = self._documents(net, (0, 1, 2))
        assert set(docs) == {
            "interpreted",
            "compiled-batch",
            "event-driven",
            "grl-circuit",
        }
        assert len(set(docs.values())) == 1
        assert docs["interpreted"]  # non-empty

    def test_random_networks_three_fast_backends(self):
        rng = random.Random(7)
        for trial in range(5):
            b = NetworkBuilder(f"rand{trial}")
            pool = [b.input(f"x{i}") for i in range(3)]
            for _ in range(12):
                op = rng.choice(["inc", "min", "max", "lt"])
                if op == "inc":
                    pool.append(b.inc(rng.choice(pool), rng.randint(1, 3)))
                elif op == "lt":
                    pool.append(b.lt(rng.choice(pool), rng.choice(pool)))
                else:
                    pool.append(getattr(b, op)(rng.choice(pool), rng.choice(pool)))
            b.output("y", pool[-1])
            net = b.build()
            volley = tuple(
                INF if rng.random() < 0.2 else rng.randint(0, 6)
                for _ in range(3)
            )
            docs = self._documents(net, volley)
            assert len(set(docs.values())) == 1, (trial, volley)

    def test_batched_trace_row_selects_volley(self):
        net = _tiny_net()
        plan = compile_plan(net)
        values = plan.run(encode_volleys([(9, 4), (1, 7)], arity=2))
        events = {e.node_id: e for e in spike_trace(net, values[1])}
        assert events[0].time == 1  # row 1, not row 0
        assert events[2].cause == "min<-0"


class TestExports:
    def test_jsonl_roundtrip(self):
        net = synthesize(FIG7_TABLE)
        trace = _interpreted_trace(net, dict(zip(net.input_names, (0, 1, 2))))
        assert from_jsonl(to_jsonl(trace, net)) == trace

    def test_jsonl_lines_are_valid_json(self):
        net = _tiny_net()
        trace = _interpreted_trace(net, {"x": 1, "y": 2})
        for line in to_jsonl(trace, net).splitlines():
            record = json.loads(line)
            assert set(record) == {"t", "node", "kind", "name", "cause"}

    def test_chrome_trace_shape(self):
        net = _tiny_net()
        trace = _interpreted_trace(net, {"x": 1, "y": 2})
        doc = to_chrome_trace(trace, net)
        events = doc["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == len(trace)
        # one process_name plus one thread_name per firing node
        assert len(metadata) == 1 + len({e.node_id for e in trace})
        json.dumps(doc)  # serializable


class TestDivergence:
    def test_agreeing_traces_have_no_divergence(self):
        left = [TraceEvent(0, 0, "input"), TraceEvent(1, 2, "min<-0")]
        assert first_divergence(left, list(left)) is None

    def test_time_difference_found_at_earlier_time(self):
        left = [TraceEvent(0, 0, "input"), TraceEvent(5, 2, "min<-0")]
        right = [TraceEvent(0, 0, "input"), TraceEvent(3, 2, "min<-1")]
        split = first_divergence(left, right)
        assert split.node_id == 2
        assert split.left.time == 5
        assert split.right.time == 3

    def test_missing_spike_found(self):
        left = [TraceEvent(0, 0, "input"), TraceEvent(2, 1, "inc+2<-0")]
        right = [TraceEvent(0, 0, "input")]
        split = first_divergence(left, right)
        assert split.node_id == 1
        assert split.right is None
        assert "no spike" in split.describe()

    def test_earliest_divergence_wins(self):
        left = [TraceEvent(1, 3, "min<-0"), TraceEvent(4, 5, "max<-3")]
        right = [TraceEvent(2, 3, "min<-1"), TraceEvent(9, 5, "max<-3")]
        split = first_divergence(left, right)
        assert split.node_id == 3  # earliest disagreement, not node 5

    def test_conformance_attaches_divergence_on_injected_fault(self):
        from repro.testing.conformance import run_case
        from repro.testing.faults import FaultedOracle, drop_lines
        from repro.testing.generators import ConformanceCase
        from repro.runtime.engines import InterpretedEngine

        # min(x, y) with a volley where line 0 wins: dropping it is visible.
        case = ConformanceCase(
            seed=0,
            family="handmade",
            network=_tiny_net(),
            volleys=((1, 4),),
        )
        faulted = FaultedOracle(
            InterpretedEngine(),
            label="drop0",
            volley_transform=lambda v: drop_lines(v, [0]),
        )
        _, mismatches = run_case(
            case, oracles=[InterpretedEngine(), faulted], shrink=False
        )
        assert mismatches, "fault must be caught"
        flagged = [m for m in mismatches if m.divergence is not None]
        assert flagged, "divergence must be attached"
        text = str(flagged[0])
        assert "first divergent node" in text
