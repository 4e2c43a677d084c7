"""Tests for request-scoped tracing: spans, exports, flight recorder."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import rtrace
from repro.obs.rtrace import (
    CANONICAL_ATTRS,
    FlightRecorder,
    RequestTrace,
    canonical_jsonl,
    from_jsonl,
    to_chrome_trace,
    to_jsonl,
    well_formed,
)


def make_trace(trace_id="t1", *, retries=0):
    """A deterministic request lifecycle (clock passed in, never read)."""
    t = 0.0
    trace = RequestTrace(trace_id, model="demo", now=t)
    for attempt in range(1, retries + 2):
        trace.push("queue", t)
        t += 0.001
        trace.pop("queue", t)
        attempt_id = trace.push("attempt", t, {"attempt": attempt})
        t += 0.002
        if attempt <= retries:
            trace.pop("attempt", t, {"error": "synthetic crash"})
        else:
            trace.graft("engine", t - 0.0015, t, attempt_id)
            trace.pop("attempt", t)
    trace.seal("ok", t)
    return trace


class TestEnableFlag:
    def test_default_off_and_toggle(self):
        assert not rtrace.rtrace_enabled()
        rtrace.enable_rtrace(True)
        try:
            assert rtrace.rtrace_enabled()
        finally:
            rtrace.enable_rtrace(False)
        assert not rtrace.rtrace_enabled()

    def test_context_manager_nests(self):
        with rtrace.rtracing():
            assert rtrace.rtrace_enabled()
            with rtrace.rtracing():
                assert rtrace.rtrace_enabled()
            assert rtrace.rtrace_enabled()  # inner exit must not disarm
        assert not rtrace.rtrace_enabled()


class TestRequestTrace:
    def test_lifecycle(self):
        trace = make_trace()
        assert trace.finished and trace.outcome == "ok"
        assert trace.spans[0].name == "request"
        assert trace.spans[0].attrs["model"] == "demo"
        assert [s.name for s in trace.spans] == [
            "request", "queue", "attempt", "engine"
        ]
        assert not well_formed(trace)

    def test_span_ids_are_creation_order(self):
        trace = make_trace(retries=1)
        assert [s.span_id for s in trace.spans] == list(range(len(trace.spans)))

    def test_finish_closes_stragglers(self):
        trace = RequestTrace("t", now=0.0)
        trace.push("queue", 0.0)
        trace.seal("deadline", 1.0)
        assert all(s.end is not None for s in trace.spans)
        assert trace.outcome == "deadline"

    def test_end_unknown_span_is_noop(self):
        trace = RequestTrace("t", now=0.0)
        trace.pop("never-opened", 1.0)  # must not raise

    def test_retry_attempts_share_the_trace_id(self):
        trace = make_trace(retries=1)
        attempts = [s for s in trace.spans if s.name == "attempt"]
        assert len(attempts) == 2
        assert attempts[0].attrs["error"] == "synthetic crash"
        assert {s.trace_id for s in trace.spans} == {trace.trace_id}
        assert not well_formed(trace)


class TestWellFormed:
    def test_negative_duration_flagged(self):
        trace = RequestTrace("t", now=5.0)
        trace.push("queue", 5.0)
        trace.pop("queue", 4.0)
        trace.seal("ok", 6.0)
        assert any("negative duration" in p for p in well_formed(trace))

    def test_bad_parent_flagged(self):
        trace = RequestTrace("t", now=0.0)
        trace.graft("orphan", 0.1, 0.2, 99)
        trace.seal("ok", 1.0)
        assert any("bad parent" in p for p in well_formed(trace))

    def test_child_outside_parent_flagged(self):
        trace = RequestTrace("t", now=0.0)
        trace.seal("ok", 1.0)
        trace.graft("late", 0.5, 2.0, 0)  # ends after the root closed
        assert any("ends after parent" in p for p in well_formed(trace))


@settings(max_examples=50, deadline=None)
@given(
    retries=st.integers(min_value=0, max_value=3),
    n_traces=st.integers(min_value=1, max_value=5),
)
def test_property_generated_lifecycles_are_well_formed(retries, n_traces):
    """Any bounded-retry lifecycle yields well-formed span intervals."""
    traces = [make_trace(f"t{i}", retries=retries) for i in range(n_traces)]
    for trace in traces:
        assert not well_formed(trace)
        # Every span interval nests inside the root's.
        root = trace.spans[0]
        for span in trace.spans:
            assert span.start >= root.start - 1e-9
            assert span.end is not None and span.end <= root.end + 1e-9


class TestExports:
    def test_jsonl_round_trip_is_byte_identical(self):
        traces = [make_trace("a", retries=1), make_trace("b")]
        doc = to_jsonl(traces)
        assert to_jsonl(from_jsonl(doc)) == doc

    def test_canonical_is_byte_stable_across_identical_runs(self):
        doc1 = canonical_jsonl([make_trace("t1", retries=1)])
        doc2 = canonical_jsonl([make_trace("t1", retries=1)])
        assert doc1 == doc2

    def test_canonical_strips_clock_fields(self):
        doc = canonical_jsonl([make_trace()])
        for line in doc.splitlines():
            record = json.loads(line)
            assert "t0_us" not in record and "t1_us" not in record
            for key in record.get("attrs", {}):
                assert key in CANONICAL_ATTRS

    def test_canonical_differs_when_structure_differs(self):
        assert canonical_jsonl([make_trace(retries=0)]) != canonical_jsonl(
            [make_trace(retries=1)]
        )

    def test_chrome_trace_shape(self):
        chrome = to_chrome_trace([make_trace("a"), make_trace("b")], label="x")
        events = chrome["traceEvents"]
        assert events[0]["args"]["name"] == "x"
        names = [e["name"] for e in events if e["ph"] == "M"]
        assert "thread_name" in names
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 2 * len(make_trace().spans)
        assert all(e["dur"] >= 0 for e in spans)
        json.dumps(chrome)  # must be serializable


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record(make_trace(f"t{i}"))
        traces = recorder.traces()
        assert len(traces) == 4
        assert [t.trace_id for t in traces] == ["t6", "t7", "t8", "t9"]
        assert recorder.stats()["recorded"] == 10

    def test_trips_counted_by_reason(self):
        recorder = FlightRecorder()
        recorder.trip("worker-crash")
        recorder.trip("worker-crash")
        recorder.trip("deadline-miss")
        assert recorder.stats()["trips"] == {
            "deadline-miss": 1,
            "worker-crash": 2,
        }

    def test_dump_to_writes_jsonl_and_chrome(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record(make_trace("t1", retries=1))
        paths = recorder.dump_to(str(tmp_path / "dump"), reason="test-reason")
        jsonl_path, chrome_path = paths
        assert jsonl_path.endswith(".jsonl")
        assert chrome_path.endswith(".trace.json")
        # The JSONL dump round-trips through from_jsonl.
        text = (tmp_path / "dump.jsonl").read_text()
        rebuilt = from_jsonl(text)
        assert [t.trace_id for t in rebuilt] == ["t1"]
        assert to_jsonl(rebuilt) == text
        chrome = json.loads((tmp_path / "dump.trace.json").read_text())
        assert chrome["otherData"]["reason"] == "test-reason"
        assert chrome["otherData"]["stats"]["trips"]["test-reason"] == 1

    def test_clear(self):
        recorder = FlightRecorder()
        recorder.record(make_trace())
        recorder.trip("x")
        recorder.clear()
        stats = recorder.stats()
        assert stats["recorded"] == 0 and not stats["trips"]
        assert not recorder.traces()


def test_module_flight_recorder_exists():
    assert isinstance(rtrace.FLIGHT, FlightRecorder)
    assert rtrace.FLIGHT.stats()["capacity"] == rtrace.FLIGHT_CAPACITY
