"""``python -m repro serve`` with timing wrappers: the traced run's server.

Usage::

    python benchmarks/e2e/traced_server.py --spans-out PREFIX [serve args...]

Before the server is built (so before any worker forks) this script
replaces the public functions each layer's caller looks up with timing
wrappers, turns on request tracing (``repro.obs.rtrace``, which reports
worker engine time on every batch) and collects every sealed request
trace by wrapping ``FLIGHT.record``.  Then it calls
``repro.serve.server.serve_main`` unchanged.  Nothing under ``src/`` is
modified.

Spans stay in memory.  At shutdown the script writes

* ``PREFIX.summary.json`` — per wrapped name, per 100 ms bucket of the
  monotonic clock: calls, total and self seconds (self = span minus the
  spans nested in it on the same thread), plus per request trace the
  durations the per-layer metrics need, grouped by the trace-id prefix
  the benchmark client assigned to each phase;
* ``PREFIX.spans.jsonl`` — a sample of individual wrapper spans;
* ``PREFIX.requests.jsonl`` — a sample of request traces (rtrace JSONL);
* ``PREFIX.trace.json`` — both samples as one Chrome trace.

The client and this process share ``CLOCK_MONOTONIC``, so the client's
phase windows select buckets directly.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import threading
from array import array
from pathlib import Path
from time import monotonic

#: Width of a time bucket of the wrapper aggregates (seconds).
BUCKET_S = 0.1

#: Individual wrapper spans for the exports: every Nth call per thread,
#: the most recent ones kept; set-up and training spans are always kept
#: (there are few of them).
RING_SAMPLE_EVERY = 16
RING_SPANS = 4000
KEEP_PREFIXES = ("setup.", "train.")

#: Request traces read for the per-layer metrics: those whose id is a
#: multiple of this; of those, every EXPORT_EVERY-th id is kept whole for
#: the exports, up to EXPORT_TRACES.
TRACE_SAMPLE_EVERY = 4
EXPORT_EVERY = 400
EXPORT_TRACES = 500

#: Request traces are read this long after they are recorded: the
#: front end grafts the response-encode span, and stretches the root
#: span over it, after the service seals (and records) the trace.
TRACE_SETTLE_S = 0.5


class _ThreadSpans:
    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.stack: list[float] = []  # child seconds of each open span
        self.buckets: dict[str, dict[int, list]] = {}
        self.ring: collections.deque = collections.deque(maxlen=RING_SPANS)
        self.kept: list[tuple] = []
        self.calls = 0


class SpanRecorder:
    """Per-thread span stacks; aggregates merged only when written."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadSpans(threading.current_thread().name)
            self._local.state = state
            self._threads.append(state)
        return state

    def wrap(self, func, name: str):
        keep = name.startswith(KEEP_PREFIXES)

        @functools.wraps(func)
        def timed(*args, **kwargs):
            state = self._state()
            stack = state.stack
            stack.append(0.0)
            start = monotonic()
            try:
                return func(*args, **kwargs)
            finally:
                duration = monotonic() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                per_name = state.buckets.get(name)
                if per_name is None:
                    per_name = state.buckets[name] = {}
                bucket = int(start / BUCKET_S)
                slot = per_name.get(bucket)
                if slot is None:
                    slot = per_name[bucket] = [0, 0.0, 0.0]
                slot[0] += 1
                slot[1] += duration
                slot[2] += duration - child
                state.calls += 1
                if keep:
                    state.kept.append((name, start, duration, duration - child, len(stack)))
                elif state.calls % RING_SAMPLE_EVERY == 0:
                    state.ring.append((name, start, duration, duration - child, len(stack)))

        return timed

    def patch(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def buckets(self) -> dict:
        merged: dict[str, dict[int, list]] = {}
        for state in list(self._threads):
            for name, per in list(state.buckets.items()):
                into = merged.setdefault(name, {})
                for bucket, (calls, total, own) in list(per.items()):
                    slot = into.setdefault(bucket, [0, 0.0, 0.0])
                    slot[0] += calls
                    slot[1] += total
                    slot[2] += own
        return {
            name: {str(b): v for b, v in sorted(per.items())}
            for name, per in merged.items()
        }

    def spans(self) -> list[dict]:
        rows = []
        for state in list(self._threads):
            for name, start, duration, own, depth in state.kept + list(state.ring):
                rows.append(
                    {
                        "name": name,
                        "thread": state.thread,
                        "t0_s": start,
                        "dur_us": duration * 1e6,
                        "self_us": own * 1e6,
                        "depth": depth,
                    }
                )
        rows.sort(key=lambda row: row["t0_s"])
        return rows


class TraceCollector:
    """Reads every :data:`TRACE_SAMPLE_EVERY`-th request trace once settled.

    Per sampled trace it keeps ``(id, root, queue, attempt, engine,
    batch, hit)`` — seconds, except the batch size and the result-cache
    hit flag — grouped by the trace id's phase prefix (``<phase>.<id>``).
    Sampling by id keeps the collector's share of the server's one
    interpreter lock small.
    """

    FIELDS = ("id", "root", "queue", "attempt", "engine", "batch", "hit")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: collections.deque = collections.deque()
        self.phases: dict[str, dict[str, array]] = {}
        self.sample: list = []

    def record(self, trace) -> None:
        phase, _, rid = trace.trace_id.partition(".")
        if not rid.isdigit() or int(rid) % TRACE_SAMPLE_EVERY:
            return
        now = monotonic()
        with self._lock:
            self._pending.append((now, trace))
            while now - self._pending[0][0] > TRACE_SETTLE_S:
                self._read(self._pending.popleft()[1])

    def flush(self) -> None:
        with self._lock:
            while self._pending:
                self._read(self._pending.popleft()[1])

    def _read(self, trace) -> None:
        phase, _, rid = trace.trace_id.partition(".")
        durations = {"queue": 0.0, "attempt": 0.0, "engine": 0.0}
        batch, hit = 0, 0
        spans = trace.spans
        for span in spans[1:]:
            if span.name in durations:
                durations[span.name] += span.duration_s
                if span.name == "attempt":
                    batch = span.attrs.get("batch", batch)
            elif span.name == "result-cache":
                hit = 1
        columns = self.phases.get(phase)
        if columns is None:
            columns = self.phases[phase] = {f: array("d") for f in self.FIELDS}
        for field, value in (
            ("id", int(rid)),
            ("root", spans[0].duration_s),
            ("queue", durations["queue"]),
            ("attempt", durations["attempt"]),
            ("engine", durations["engine"]),
            ("batch", batch),
            ("hit", hit),
        ):
            columns[field].append(value)
        if len(self.sample) < EXPORT_TRACES and int(rid) % EXPORT_EVERY == 0:
            self.sample.append(trace)


def install(recorder: SpanRecorder, collector: TraceCollector) -> None:
    """Wrap each layer's public entry point at the name its caller uses."""
    from repro.obs import rtrace
    from repro.runtime.result_cache import RESULT_CACHE
    from repro.serve import pool, registry, server, service
    from repro.train import plane

    patches = [
        (server, "parse_request", "wire.parse"),
        (server, "encode_line", "wire.encode"),
        (service, "volley_digest", "cache.digest"),
        (RESULT_CACHE, "get", "cache.get"),
        (RESULT_CACHE, "put", "cache.put"),
        (service.TNNService, "submit", "service.submit"),
        (service.TNNService, "promote", "train.promote"),
        (pool.ProcessWorkerPool, "submit", "pool.submit"),
        (pool.ProcessWorkerPool, "__init__", "setup.pool"),
        (registry.ModelRegistry, "register", "setup.register"),
        (registry, "optimize_program", "setup.optimize"),
        (plane.IncrementalTrainer, "step", "train.step"),
        (plane.IncrementalTrainer, "compile_snapshot", "train.compile"),
        (plane.TrainingPlane, "snapshot", "train.snapshot"),
    ]
    for owner, attr, name in patches:
        recorder.patch(owner, attr, name)
    original = rtrace.FLIGHT.record

    def record(trace) -> None:
        original(trace)
        collector.record(trace)

    rtrace.FLIGHT.record = record


def write(prefix: str, recorder: SpanRecorder, collector: TraceCollector) -> None:
    from repro.obs import rtrace

    collector.flush()
    Path(f"{prefix}.summary.json").write_text(
        json.dumps(
            {
                "bucket_s": BUCKET_S,
                "buckets": recorder.buckets(),
                "trace_sample_every": TRACE_SAMPLE_EVERY,
                "requests": {
                    phase: {field: column.tolist() for field, column in columns.items()}
                    for phase, columns in collector.phases.items()
                },
            }
        ),
        encoding="utf-8",
    )
    spans = recorder.spans()
    with open(f"{prefix}.spans.jsonl", "w", encoding="utf-8") as handle:
        for row in spans:
            handle.write(json.dumps(row, separators=(",", ":")) + "\n")
    Path(f"{prefix}.requests.jsonl").write_text(
        rtrace.to_jsonl(collector.sample), encoding="utf-8"
    )
    chrome = rtrace.to_chrome_trace(collector.sample, label="requests (sampled)")
    for event in chrome["traceEvents"]:
        event["pid"] = 2
    origin = spans[0]["t0_s"] if spans else 0.0
    threads = {name: tid for tid, name in enumerate(sorted({s["thread"] for s in spans}), 1)}
    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "server layers (sampled)"}}
    ]
    events += [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": name}}
        for name, tid in threads.items()
    ]
    events += [
        {
            "name": s["name"],
            "ph": "X",
            "pid": 1,
            "tid": threads[s["thread"]],
            "ts": round((s["t0_s"] - origin) * 1e6, 3),
            "dur": round(s["dur_us"], 3),
            "args": {"self_us": round(s["self_us"], 3)},
        }
        for s in spans
    ]
    chrome["traceEvents"] = events + chrome["traceEvents"]
    Path(f"{prefix}.trace.json").write_text(json.dumps(chrome), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        print("usage: traced_server.py --spans-out PREFIX [serve args...]", file=sys.stderr)
        return 2
    prefix, serve_args = argv[1], argv[2:]
    from repro.serve.server import serve_main

    recorder, collector = SpanRecorder(), TraceCollector()
    install(recorder, collector)
    code = serve_main([*serve_args, "--rtrace"])
    write(prefix, recorder, collector)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
