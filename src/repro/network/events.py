"""Operational event-driven simulation of space-time networks.

Where :mod:`repro.network.simulator` computes each node's output
denotationally, this simulator *runs* the network the way direct hardware
(spiking neurons or race-logic gates) would: spikes are discrete events
delivered along wires, and each block decides to fire using only the
events it has locally observed so far — exactly the paper's stipulation
that "the only information a functional block receives is input spike
times viewed from its local frame of reference".

Firing rules, using only local arrival history:

* ``inc``  — fires ``amount`` units after its source's spike arrives.
* ``min``  — fires at its first arrival.
* ``max``  — fires when the last of its sources has arrived.
* ``lt``   — when ``a`` arrives at ``t``, fires at ``t`` iff ``b`` has not
  arrived at or before ``t``.
* ``rank`` — row ``k`` (from 0) fires at the ``k+1``-th arrival among
  its lanes (a threshold; a lane listed twice arrives twice).

Correctness with zero-delay blocks needs care: several events can share a
timestamp, and an ``lt`` must not decide "b is absent" while a same-time
``b`` spike is still in flight.  The simulator therefore orders same-time
events by topological index — in a feedforward network every wire feeding
a block comes from a lower topological index, so when a block is evaluated
at time ``t`` all spikes that can reach it at ``<= t`` have already been
delivered.

The simulator also records the full spike trace and per-wire event counts,
which the energy analyses (§VI) consume.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional

from ..core.value import INF, Infinity, Time, check_time
from ..obs.metrics import METRICS
from .graph import CONST_IDENTITY, Network, NetworkError, classify


@dataclass(frozen=True)
class SpikeEvent:
    """One spike observed on a node's output wire."""

    time: int
    node_id: int


@dataclass
class SimulationResult:
    """Trace and summary of one event-driven run."""

    outputs: dict[str, Time]
    fire_times: list[Time]
    trace: list[SpikeEvent] = field(default_factory=list)
    #: Peak pending-event count in the scheduler queue during the run.
    queue_peak: int = 0

    @property
    def total_spikes(self) -> int:
        return len(self.trace)

    def spikes_at(self, time: int) -> list[SpikeEvent]:
        return [e for e in self.trace if e.time == time]

    @property
    def makespan(self) -> Optional[int]:
        """Time of the last spike, or ``None`` when nothing fired.

        An all-``∞`` run produces no spikes at all; that is *not* the
        same as a computation whose last spike happened at time 0, so
        the silent case is ``None`` rather than a fake 0.
        """
        return max((e.time for e in self.trace), default=None)


class EventSimulator:
    """Reusable event-driven simulator for one network or program.

    The scheduler is seeded from the IR: terminals inject their bound
    spikes, and every IR-declared constant whose lattice identity is 0
    (a zero-source ``max``) injects a spike at time 0 — the simulator no
    longer pattern-matches zero-source nodes itself.
    """

    def __init__(self, network: Network):
        self.network = network
        # Each wire's (reader, port) pairs: one sorter's rank rows all
        # read each lane, so scanning every reader's sources per spike
        # would cost lanes x rows per lane.
        self._readers: list[list[tuple[int, int]]] = [[] for _ in self.network.nodes]
        for node in self.network.nodes:
            for port, src in enumerate(node.sources):
                self._readers[src].append((node.id, port))

    def run(
        self,
        inputs: Mapping[str, Time],
        *,
        params: Optional[Mapping[str, Time]] = None,
    ) -> SimulationResult:
        """Run one volley; its ``fire_times`` are the vector
        :func:`repro.obs.trace.spike_trace` takes."""
        net = self.network
        params = params or {}
        missing_in = set(net.input_ids) - set(inputs)
        if missing_in:
            raise NetworkError(f"unbound inputs: {sorted(missing_in)}")
        missing_p = set(net.param_ids) - set(params)
        if missing_p:
            raise NetworkError(f"unbound params: {sorted(missing_p)}")

        n = len(net.nodes)
        fired: list[Time] = [INF] * n
        # arrivals[node_id][port] = arrival time of the spike on that port
        arrivals: list[dict[int, int]] = [{} for _ in range(n)]
        trace: list[SpikeEvent] = []
        # Heap of (time, node_id, order, port).  Within a timestamp, events
        # sort by topological index (node_id), which in a feedforward
        # network guarantees every spike that can reach a block at <= t is
        # delivered before the block decides.  Within one block, a
        # same-time b-spike (port 1, order -1) is delivered before the
        # a-spike (port 0, order 0) so lt ties correctly produce no spike;
        # self-injections (inc firings, terminals) sort last (order 1).
        heap: list[tuple[int, int, int, int]] = []

        def fire(node_id: int, t: int) -> None:
            if not isinstance(fired[node_id], Infinity):
                return
            fired[node_id] = t
            trace.append(SpikeEvent(t, node_id))
            for consumer, port in self._readers[node_id]:
                heapq.heappush(heap, (t, consumer, -port, port))

        for node in net.nodes:
            if node.kind == "input":
                t0 = check_time(inputs[node.name], name=node.name)
                if not isinstance(t0, Infinity):
                    heapq.heappush(heap, (t0, node.id, 1, -1))
            elif node.kind == "param":
                value = check_time(params[node.name], name=node.name)
                if value == 0:
                    heapq.heappush(heap, (0, node.id, 1, -1))
                elif not isinstance(value, Infinity):
                    raise NetworkError(
                        f"param {node.name!r} must be 0 or INF, got {value}"
                    )
        for const_id in net.const_ids:
            # IR-declared constants: a finite lattice identity (the empty
            # max, 0) fires immediately; ∞ (the empty min) never fires —
            # no injection needed, it stays INF naturally.
            identity = CONST_IDENTITY[classify(net.nodes[const_id])]
            if not isinstance(identity, Infinity):
                heapq.heappush(heap, (int(identity), const_id, 1, -1))

        queue_peak = len(heap)
        while heap:
            if len(heap) > queue_peak:
                queue_peak = len(heap)
            t, node_id, _, port = heapq.heappop(heap)
            node = self.network.nodes[node_id]
            if port == -1:
                # Terminal injection: the node itself spikes now.
                fire(node_id, t)
                continue
            arrivals[node_id][port] = min(arrivals[node_id].get(port, t), t)
            if not isinstance(fired[node_id], Infinity):
                continue
            if node.kind == "inc":
                # Delayed firing: schedule the spike 'amount' units later.
                heapq.heappush(heap, (t + node.amount, node_id, 1, -1))
            elif node.kind == "min":
                fire(node_id, t)
            elif node.kind == "max":
                if len(arrivals[node_id]) == len(node.sources):
                    fire(node_id, t)
            elif node.kind == "lt":
                if port == 0:
                    b_arrival = arrivals[node_id].get(1)
                    if b_arrival is None or b_arrival > t:
                        fire(node_id, t)
                # A spike on port 1 (b) never causes lt to fire; if a already
                # fired the block, the min() above keeps history consistent.
            elif node.kind == "rank":
                if len(arrivals[node_id]) == node.amount + 1:
                    fire(node_id, t)

        outputs = {name: fired[nid] for name, nid in net.outputs.items()}
        trace.sort(key=lambda e: (e.time, e.node_id))
        METRICS.inc("events.runs")
        METRICS.inc("events.spikes", len(trace))
        METRICS.observe_max("events.queue_peak", queue_peak)
        return SimulationResult(
            outputs=outputs,
            fire_times=fired,
            trace=trace,
            queue_peak=queue_peak,
        )


def simulate(
    network: Network,
    inputs: Mapping[str, Time],
    *,
    params: Optional[Mapping[str, Time]] = None,
) -> SimulationResult:
    """One-shot event-driven simulation of *network*."""
    return EventSimulator(network).run(inputs, params=params)
