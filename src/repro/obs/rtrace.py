"""Request-scoped tracing: span trees for the serving path.

:mod:`repro.obs.trace` answers "which node fired when" inside one
evaluation; this module answers the question one level up — *where did a
served request spend its time?*  A request's lifecycle through
:class:`repro.serve.service.TNNService` is a composition of stages
(admission → micro-batch wait → worker dispatch → engine run → response
encode), and end-to-end latency is exactly the composition of stage
latencies — so that is what we record: one **span** per stage, all
sharing the request's **trace id**, nested under a root ``request``
span.

Design rules (the PR-3 discipline, applied to the request path):

* **Disabled is one flag read.**  Every producer call site checks
  :data:`_ENABLED` (via :func:`rtrace_enabled`) before touching a clock
  or allocating anything; the default is off.
* **Trace ids are propagated, never invented twice.**  A client may
  supply a ``trace`` field on the wire; otherwise the service derives
  one deterministically from its request counter.  A worker-crash retry
  re-dispatches the *same* request objects, so both attempts' spans
  carry the same trace id — the flight recorder shows the retry as two
  ``dispatch`` spans under one trace.
* **Structure is byte-stable, clocks are not.**  :func:`canonical_jsonl`
  renders the structural projection of a trace — ids, parents, names,
  outcome attributes, in span-creation order — with every wall-clock
  field stripped, so two identical runs produce byte-identical
  documents (the same contract spike traces state via
  :func:`repro.obs.trace.to_jsonl`).  :func:`to_jsonl` keeps relative
  microsecond timings for humans and dashboards.

The :class:`FlightRecorder` is the bounded memory of recent request
traces: a ring buffer that can be **dumped** (JSONL + Chrome tracing
JSON) when something goes wrong — a worker crash, a deadline miss, an
overload-rejection burst, or an operator ``SIGUSR2``.  The module-level
:data:`FLIGHT` instance is what the serving stack records into.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Iterable, Optional

#: Module flag: the one word every disabled producer call site checks.
_ENABLED = False


def rtrace_enabled() -> bool:
    """True while request tracing is on (see :func:`enable_rtrace`)."""
    return _ENABLED


def enable_rtrace(on: bool = True) -> None:
    """Switch request tracing on or off process-wide."""
    global _ENABLED
    _ENABLED = bool(on)


class rtracing:
    """Context manager: request tracing on for the ``with`` block.

    Nestable; restores the previous state on exit so an outer block is
    not disarmed by an inner one finishing.
    """

    def __enter__(self) -> "rtracing":
        global _ENABLED
        self._previous = _ENABLED
        _ENABLED = True
        return self

    def __exit__(self, *exc: object) -> None:
        global _ENABLED
        _ENABLED = self._previous


@dataclass(slots=True)
class Span:
    """One timed stage of a request's lifecycle.

    ``span_id`` is the span's creation index *within its trace* (0 is
    always the root ``request`` span) — which makes creation order, and
    therefore the canonical rendering, deterministic for a deterministic
    lifecycle.  ``start``/``end`` are monotonic-clock seconds; ``end``
    is ``None`` while the span is open.  ``attrs`` carries structural
    labels (model, outcome, attempt number, batch size); only the
    *stable* ones survive into the canonical projection (see
    :data:`CANONICAL_ATTRS`).
    """

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Span duration in seconds (0.0 while still open)."""
        return 0.0 if self.end is None else max(0.0, self.end - self.start)


#: Attribute keys that are pure functions of the request stream (never
#: of wall-clock or scheduling), and therefore belong in the canonical
#: byte-stable projection.
CANONICAL_ATTRS = ("model", "outcome", "attempt", "error")


class RequestTrace:
    """The span tree of one served request.

    Producers open and close spans through this object; the service
    finishes the trace exactly once (on the completion path that
    resolves the request) and hands it to the flight recorder.  Spans
    are appended under the GIL from whichever thread owns the stage
    (admission from the submitter, dispatch and completion from the
    pool's event loop) — stages never overlap for one request, so no
    further locking is needed.

    Internally the trace is an **event log**, not a list of objects:
    every producer call appends one small list
    (``[name, parent, start, end, attrs]``) and span ids are the
    append positions (0 is the root).  This keeps the per-request cost
    on the serving hot path to a few container appends — the
    :class:`Span` view is materialized lazily by :attr:`spans` when
    something actually reads the trace (exports, dumps, tests).
    The producer calls are positional (``push``/``pop``/``graft``/
    ``seal``), so the hot path builds no kwargs dict; ``push`` and
    ``graft`` return span *ids*, an ``attrs`` dict passed in becomes
    the event's own, and the ``attrs`` dicts on materialized spans are
    live views of the log.
    """

    __slots__ = ("trace_id", "_events", "_open", "_cache", "_dirty")

    # Event layout: [name, parent_id, start, end, attrs-dict-or-None].
    def __init__(self, trace_id: str, *, model: str = "", now: Optional[float] = None):
        self.trace_id = trace_id
        self._events: list[list] = [
            [
                "request",
                None,
                monotonic() if now is None else now,
                None,
                {"model": model} if model else None,
            ]
        ]
        self._open: dict[str, int] = {}
        self._cache: Optional[list[Span]] = None
        self._dirty = True

    @property
    def spans(self) -> list[Span]:
        """The materialized :class:`Span` view, built on demand."""
        if self._dirty:
            trace_id = self.trace_id
            self._cache = [
                Span(
                    trace_id=trace_id,
                    span_id=index,
                    parent_id=event[1],
                    name=event[0],
                    start=event[2],
                    end=event[3],
                    attrs=event[4] if event[4] is not None else {},
                )
                for index, event in enumerate(self._events)
            ]
            self._dirty = False
        return self._cache

    @classmethod
    def _from_spans(cls, trace_id: str, spans: list[Span]) -> "RequestTrace":
        """A read-only trace over already-built spans (parse-back path)."""
        trace = cls.__new__(cls)
        trace.trace_id = trace_id
        trace._events = [
            [s.name, s.parent_id, s.start, s.end, s.attrs or None] for s in spans
        ]
        trace._open = {}
        trace._cache = spans
        trace._dirty = False
        return trace

    @property
    def root(self) -> Span:
        return self.spans[0]

    def push(self, name: str, now: float, attrs: Optional[dict] = None) -> int:
        """Open a child span *name* under the root; returns its id."""
        events = self._events
        index = len(events)
        events.append([name, 0, now, None, attrs])
        self._open[name] = index
        self._dirty = True
        return index

    def pop(
        self, name: str, now: float, attrs: Optional[dict] = None
    ) -> Optional[int]:
        """Close the most recent open span *name* (no-op if absent)."""
        index = self._open.pop(name, None)
        if index is None:
            return None
        event = self._events[index]
        event[3] = now
        if attrs:
            if event[4] is None:
                event[4] = attrs
            else:
                event[4].update(attrs)
        self._dirty = True
        return index

    def graft(self, name: str, start: float, end: float, parent: int) -> int:
        """Append an already-timed span (worker-reported engine phases)."""
        events = self._events
        index = len(events)
        events.append([name, parent, start, end, None])
        self._dirty = True
        return index

    def seal(
        self, outcome: str, now: float, attrs: Optional[dict] = None
    ) -> None:
        """Close the root span (and any stragglers) with an *outcome*.

        *attrs*, when given, are merged into the root span's attributes.
        """
        events = self._events
        if self._open:
            for index in self._open.values():
                if events[index][3] is None:
                    events[index][3] = now
            self._open.clear()
        root = events[0]
        if root[3] is None:
            root[3] = now
        if root[4] is None:
            root[4] = {"outcome": outcome}
        else:
            root[4]["outcome"] = outcome
        if attrs:
            root[4].update(attrs)
        self._dirty = True

    def span_start(self, span_id: int) -> float:
        """The start time of span *span_id* (an anchor for derived spans)."""
        return self._events[span_id][2]

    def stretch(self, end: float) -> None:
        """Extend the root span's end to at least *end* (post-finish spans)."""
        root = self._events[0]
        if root[3] is not None and root[3] < end:
            root[3] = end
            self._dirty = True

    @property
    def outcome(self) -> Optional[str]:
        attrs = self._events[0][4]
        return None if attrs is None else attrs.get("outcome")

    @property
    def finished(self) -> bool:
        return self._events[0][3] is not None

    def duration_s(self) -> float:
        root = self._events[0]
        return 0.0 if root[3] is None else max(0.0, root[3] - root[2])

    def __len__(self) -> int:
        return len(self._events)


# ---------------------------------------------------------------------------
# Exports: JSONL (full + canonical), Chrome tracing, parse-back
# ---------------------------------------------------------------------------

def _span_record(span: Span, origin: float) -> dict:
    """The full JSONL record: timings as integer µs relative to *origin*."""
    record: dict[str, Any] = {
        "trace": span.trace_id,
        "span": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "t0_us": int(round((span.start - origin) * 1e6)),
        "t1_us": (
            None if span.end is None else int(round((span.end - origin) * 1e6))
        ),
    }
    if span.attrs:
        record["attrs"] = {k: span.attrs[k] for k in sorted(span.attrs)}
    return record


def to_jsonl(traces: Iterable[RequestTrace]) -> str:
    """Full JSON-lines dump: one span per line, timings in relative µs.

    Each trace's clock origin is its own root start, so documents from
    different processes line up at 0.  Not byte-stable (timings are
    wall-clock); see :func:`canonical_jsonl` for the stable projection.
    """
    lines = []
    for trace in traces:
        origin = trace.spans[0].start
        for span in trace.spans:
            lines.append(
                json.dumps(_span_record(span, origin), separators=(",", ":"))
            )
    return "".join(line + "\n" for line in lines)


def canonical_jsonl(traces: Iterable[RequestTrace]) -> str:
    """The byte-stable structural projection of traces.

    One span per line in creation order, fields ``trace, span, parent,
    name`` plus only the :data:`CANONICAL_ATTRS` attributes — every
    clock-derived field stripped.  Two identical runs (same requests,
    same service construction) render byte-identical documents; this is
    the form the rtrace test suite pins.
    """
    lines = []
    for trace in traces:
        for span in trace.spans:
            record: dict[str, Any] = {
                "trace": span.trace_id,
                "span": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
            }
            stable = {
                key: span.attrs[key] for key in CANONICAL_ATTRS if key in span.attrs
            }
            if stable:
                record["attrs"] = stable
            lines.append(json.dumps(record, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


def from_jsonl(text: str) -> list[RequestTrace]:
    """Parse a :func:`to_jsonl` document back into traces.

    Rebuilds one :class:`RequestTrace` per distinct trace id, spans in
    document order, with the µs-relative timings restored as the span
    clock (origin 0).  ``to_jsonl(from_jsonl(doc))`` is byte-identical
    to ``doc`` — the round-trip contract the flight-recorder tests pin.
    """
    spans_by_trace: dict[str, list[Span]] = {}
    order: list[str] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        trace_id = record["trace"]
        spans = spans_by_trace.get(trace_id)
        if spans is None:
            spans = spans_by_trace[trace_id] = []
            order.append(trace_id)
        spans.append(
            Span(
                trace_id=trace_id,
                span_id=record["span"],
                parent_id=record["parent"],
                name=record["name"],
                start=record["t0_us"] / 1e6,
                end=(
                    None
                    if record.get("t1_us") is None
                    else record["t1_us"] / 1e6
                ),
                attrs=dict(record.get("attrs") or {}),
            )
        )
    return [
        RequestTrace._from_spans(tid, spans_by_trace[tid]) for tid in order
    ]


def to_chrome_trace(traces: Iterable[RequestTrace], *, label: str = "rtrace") -> dict:
    """Render traces as Chrome ``chrome://tracing`` / Perfetto JSON.

    Each trace becomes a thread row (tid = its position in the dump,
    named by trace id); each span a complete ``X`` event with relative
    µs timings, so a request reads as a waterfall of its stages.
    """
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": label}}
    ]
    for tid, trace in enumerate(traces, start=1):
        origin = trace.spans[0].start
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": trace.trace_id},
            }
        )
        for span in trace.spans:
            end = span.end if span.end is not None else span.start
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round((end - span.start) * 1e6, 3),
                    "args": dict(span.attrs),
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"format": "repro.obs request trace"},
    }


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

#: Default ring capacity: enough to reconstruct the last few seconds of
#: saturated traffic without unbounded memory.
FLIGHT_CAPACITY = 512


class FlightRecorder:
    """A bounded ring of recently finished request traces.

    The serving stack records every finished trace here (when tracing is
    enabled); anomalies **trip** the recorder with a reason, which
    increments a counter and marks the dump-worthy moment.  ``dump``
    renders the current ring as JSONL (and optionally Chrome JSON) —
    cheap enough to call from a signal handler or a failure path.
    """

    def __init__(self, capacity: int = FLIGHT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self._ring: deque[RequestTrace] = deque(maxlen=capacity)
        self._trips: dict[str, int] = {}
        self._recorded = 0

    def record(self, trace: RequestTrace) -> None:
        """Add one finished trace to the ring (oldest falls out)."""
        with self._lock:
            self._ring.append(trace)
            self._recorded += 1

    def trip(self, reason: str) -> None:
        """Note a dump-worthy anomaly (crash, deadline, burst, signal)."""
        with self._lock:
            self._trips[reason] = self._trips.get(reason, 0) + 1

    def traces(self) -> list[RequestTrace]:
        """The current ring contents, oldest first."""
        with self._lock:
            return list(self._ring)

    def stats(self) -> dict:
        with self._lock:
            return {
                "recorded": self._recorded,
                "buffered": len(self._ring),
                "capacity": self._ring.maxlen,
                "trips": dict(sorted(self._trips.items())),
            }

    def dump_jsonl(self) -> str:
        """The ring as a full JSONL document (see :func:`to_jsonl`)."""
        return to_jsonl(self.traces())

    def dump_chrome(self, *, label: str = "flight-recorder") -> dict:
        return to_chrome_trace(self.traces(), label=label)

    def dump_to(self, prefix: str, *, reason: str = "manual") -> list[str]:
        """Write ``<prefix>.jsonl`` + ``<prefix>.trace.json``; returns paths.

        The Chrome document embeds the trip *reason* and trip counters
        so a dump is self-describing.
        """
        self.trip(reason)
        traces = self.traces()
        jsonl_path = f"{prefix}.jsonl"
        chrome_path = f"{prefix}.trace.json"
        with open(jsonl_path, "w", encoding="utf-8") as handle:
            handle.write(to_jsonl(traces))
        chrome = to_chrome_trace(traces, label=f"flight-recorder:{reason}")
        chrome["otherData"]["reason"] = reason
        chrome["otherData"]["stats"] = self.stats()
        with open(chrome_path, "w", encoding="utf-8") as handle:
            json.dump(chrome, handle, indent=1)
        return [jsonl_path, chrome_path]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._trips.clear()
            self._recorded = 0


#: The process-wide flight recorder the serving stack records into.
FLIGHT = FlightRecorder()


# ---------------------------------------------------------------------------
# Well-formedness (the property the test suite states with Hypothesis)
# ---------------------------------------------------------------------------

def well_formed(trace: RequestTrace) -> list[str]:
    """Structural violations of *trace* (empty list = well-formed).

    A finished trace is well-formed when every span has a non-negative
    duration, every non-root span names an existing earlier parent, and
    every child's interval lies within its parent's (closed) interval.
    """
    problems: list[str] = []
    by_id = {span.span_id: span for span in trace.spans}
    for span in trace.spans:
        if span.end is not None and span.end < span.start:
            problems.append(f"span {span.span_id} ({span.name}): negative duration")
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None or span.parent_id >= span.span_id:
            problems.append(
                f"span {span.span_id} ({span.name}): bad parent {span.parent_id}"
            )
            continue
        if span.start < parent.start - 1e-9:
            problems.append(
                f"span {span.span_id} ({span.name}): starts before parent"
            )
        if (
            span.end is not None
            and parent.end is not None
            and span.end > parent.end + 1e-9
        ):
            problems.append(
                f"span {span.span_id} ({span.name}): ends after parent"
            )
    return problems
