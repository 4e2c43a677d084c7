"""Structured spike tracing: who fired, when, and why.

The paper's values are *event times* — a network's entire behaviour is
the set of ``(node, fire_time)`` pairs one volley produces — yet the
evaluation entry points only return output volleys.  This module defines
the **canonical spike trace**, a backend-independent record of every
node firing, as one pure function of a program and its per-node fire
times: :func:`spike_trace`.  Every backend already produces that vector
— the interpreted walk's value list, a row of the compiled plan's value
matrix, the event simulator's ``fire_times``, the GRL circuit's wire
fall times read back per node — so every backend's trace is
``spike_trace(program, values)`` over its own values
(:meth:`repro.runtime.engines.BackendEngine.trace`).

Canonical form
--------------
One event per node that fires: ``(fire_time, node_id, cause)``, sorted
by ``(fire_time, node_id)``, with times in sentinel-saturated semantics
(a finite time above :data:`~repro.core.value.MAX_FINITE`
means ``∞`` and emits no event — the same contract the conformance
oracles compare under).  The *cause* names the structural reason the
node fired and is a pure function of the network and the per-node fire
times:

===========  =========================================================
node kind    cause
===========  =========================================================
``input``    ``"input"``
``param``    ``"param"`` (only a 0-pinned param fires)
``inc``      ``"inc+<amount><-<src>"``
``min``      ``"min<-<src>"`` — the earliest source (ties: lowest id)
``max``      ``"max<-<src>"`` — the latest source (ties: lowest id)
``lt``       ``"lt<-<a>"`` — fires only via its first operand
``rank``     ``"rank<k><-<src>"`` — the lane holding the ``k``-th value
             (ties: lowest id)
``max`` (0-ary)  ``"const0"`` — the lattice bottom fires at 0
===========  =========================================================

Because the cause is derived from fire times alone, two backends that
agree on fire times produce **byte-identical** canonical traces
(:func:`to_jsonl`), and two that disagree can be diffed down to the
first divergent node (:func:`first_divergence`) — which is how the
conformance engine turns a shrunk reproducer into an explained one.

Exports are JSON-lines (:func:`to_jsonl`, one event per line, stable
key order) and the Chrome ``chrome://tracing`` / Perfetto JSON format
(:func:`to_chrome_trace`, one row per node, instant events at fire
times).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..core.value import MAX_FINITE, Infinity
from ..network.graph import Network
from .metrics import METRICS


@dataclass(frozen=True, order=True)
class TraceEvent:
    """One node firing, in canonical (time, node, cause) form."""

    time: int
    node_id: int
    cause: str


# ---------------------------------------------------------------------------
# Cause derivation
# ---------------------------------------------------------------------------

def _is_finite(value) -> bool:
    """Membership in the emittable range: finite and under the sentinel."""
    return not isinstance(value, Infinity) and int(value) <= MAX_FINITE


def cause_of(node, values) -> str:
    """The canonical cause string for *node* having fired.

    *values* maps node id → fire time and may hold either ``Time``
    values (``INF`` objects for silence) or sentinel-encoded ints — the
    derivation only compares values, and ``∞`` compares greater than
    every finite time in both encodings.
    """
    kind = node.kind
    if kind == "input":
        return "input"
    if kind == "param":
        return "param"
    if kind == "inc":
        return f"inc+{node.amount}<-{node.sources[0]}"
    if kind == "lt":
        return f"lt<-{node.sources[0]}"
    if kind == "rank":
        kth = sorted([_as_int(values[s]) for s in node.sources])[node.amount]
        winner = min(s for s in node.sources if _as_int(values[s]) == kth)
        return f"rank{node.amount}<-{winner}"
    if not node.sources:  # 0-ary max; a 0-ary min never fires
        return "const0"
    if kind == "min":
        winner = min(node.sources, key=lambda s: (values[s], s))
        return f"min<-{winner}"
    # max: the last arrival; ties resolve to the lowest node id.
    winner = min(node.sources, key=lambda s: (-_as_int(values[s]), s))
    return f"max<-{winner}"


def _as_int(value) -> int:
    """Order-preserving int view of a fire time (∞ → a value above all)."""
    return (MAX_FINITE + 1) if isinstance(value, Infinity) else int(value)


def spike_trace(program: Network, values: Sequence) -> list[TraceEvent]:
    """The canonical spike trace of one volley, from its fire times.

    *values* holds every node's fire time by node id, in either encoding
    :func:`cause_of` accepts.  One event per finite firing (a time above
    :data:`~repro.core.value.MAX_FINITE` means ``∞``), sorted
    by ``(time, node_id)``.  Any program traces, rank rows included, so
    the program a serving worker runs traces as it is.
    """
    events = sorted(
        TraceEvent(int(value), node.id, cause_of(node, values))
        for node, value in zip(program.nodes, values)
        if _is_finite(value)
    )
    METRICS.inc("trace.events", len(events))
    return events


# ---------------------------------------------------------------------------
# Canonical exports
# ---------------------------------------------------------------------------

def to_jsonl(events: Sequence[TraceEvent], network) -> str:
    """Render a canonical JSON-lines trace (byte-stable across backends).

    One event per line, sorted by ``(time, node_id)``, fixed key order
    ``t, node, kind, name, cause`` and compact separators — two equal
    traces serialize to identical bytes.
    """
    lines = []
    for event in sorted(events):
        node = network.nodes[event.node_id]
        lines.append(
            json.dumps(
                {
                    "t": event.time,
                    "node": event.node_id,
                    "kind": node.kind,
                    "name": node.name,
                    "cause": event.cause,
                },
                separators=(",", ":"),
            )
        )
    return "".join(line + "\n" for line in lines)


def project_events(
    events: Sequence[TraceEvent],
    provenance: Mapping[int, tuple[int, ...]],
) -> list[TraceEvent]:
    """Project an optimized program's trace onto original node identities.

    *provenance* is the :attr:`repro.network.graph.Network.provenance` map:
    each optimized node id → the tuple of original node ids it stands
    for, every one of which provably fires at the same time.  Each event
    is therefore fanned out to one event per original root, so the
    projected trace lists a firing for every original node the optimized
    run still observes.  Original nodes absent from every tuple (dead
    code, provably-never wires) simply have no events — they never fire
    or are unobservable.

    Cause strings are kept verbatim and thus still name *optimized*
    node ids; the projection relates identities, not derivations.
    """
    projected = [
        TraceEvent(event.time, root, event.cause)
        for event in events
        for root in provenance.get(event.node_id, ())
    ]
    return sorted(projected)


def from_jsonl(text: str) -> list[TraceEvent]:
    """Parse a :func:`to_jsonl` document back into canonical events."""
    events = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        events.append(TraceEvent(record["t"], record["node"], record["cause"]))
    return sorted(events)


def to_chrome_trace(
    events: Sequence[TraceEvent], network, *, label: str = "spike-trace"
) -> dict:
    """Render a ``chrome://tracing`` / Perfetto JSON object.

    Each node becomes a thread row (tid = node id, named after the
    node), each firing an instant event at ``ts = fire_time`` µs — the
    result reads as a spike raster in the trace viewer.  Serialize with
    ``json.dumps`` and load via ``chrome://tracing`` or ui.perfetto.dev.
    """
    trace_events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": label},
        }
    ]
    seen_nodes = sorted({e.node_id for e in events})
    for node_id in seen_nodes:
        node = network.nodes[node_id]
        row = f"{node_id:04d} {node.kind}" + (f" {node.name}" if node.name else "")
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": node_id,
                "args": {"name": row},
            }
        )
    for event in sorted(events):
        node = network.nodes[event.node_id]
        trace_events.append(
            {
                "name": f"{node.kind}@{event.time}",
                "ph": "i",
                "s": "t",
                "ts": event.time,
                "pid": 1,
                "tid": event.node_id,
                "args": {"cause": event.cause},
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"network": network.name, "format": "repro.obs spike trace"},
    }


# ---------------------------------------------------------------------------
# Trace diffing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Divergence:
    """The first node two traces disagree about.

    ``left``/``right`` are the node's events in each trace (``None``
    where the node never fired).  "First" means earliest by the
    canonical ``(time, node_id)`` order of whichever side observed it.
    """

    node_id: int
    left: Optional[TraceEvent]
    right: Optional[TraceEvent]

    def describe(
        self, left_name: str = "left", right_name: str = "right", network=None
    ) -> str:
        node_label = f"node {self.node_id}"
        if network is not None:
            node = network.nodes[self.node_id]
            suffix = f" {node.name}" if node.name else ""
            node_label = f"node {self.node_id} ({node.kind}{suffix})"

        def side(event: Optional[TraceEvent]) -> str:
            if event is None:
                return "no spike"
            return f"t={event.time} via {event.cause}"

        return (
            f"first divergent {node_label}: "
            f"{left_name} {side(self.left)} vs {right_name} {side(self.right)}"
        )


def first_divergence(
    left: Sequence[TraceEvent], right: Sequence[TraceEvent]
) -> Optional[Divergence]:
    """The earliest node whose firing record differs, or ``None``.

    Compares per-node ``(time, cause)`` records, walking nodes in the
    canonical order of their earliest appearance on either side — so a
    node that fired in one trace and not the other is found at the time
    it did fire, and a node that fired at different times is found at
    the earlier of the two.
    """
    by_left = {e.node_id: e for e in left}
    by_right = {e.node_id: e for e in right}

    def earliest(node_id: int) -> tuple[int, int]:
        times = [
            d[node_id].time for d in (by_left, by_right) if node_id in d
        ]
        return (min(times), node_id)

    for node_id in sorted(set(by_left) | set(by_right), key=earliest):
        if by_left.get(node_id) != by_right.get(node_id):
            return Divergence(node_id, by_left.get(node_id), by_right.get(node_id))
    return None
