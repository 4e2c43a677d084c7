"""Static timing analysis of space-time networks.

In s-t computing the output time *is* the output value, so "timing
analysis" is abstract interpretation of the semantics itself: given an
interval of possible spike times per input (including "may be absent"),
compute a sound interval per node.  Uses:

* sizing the clocked GRL simulator's horizon and the shift-register
  budget before synthesis,
* bounding a network's makespan (worst-case finish time) for scheduling
  volley pipelines (the Fig. 7 wave model needs successive volleys not
  to overlap),
* quick impossibility checks (an output whose interval is empty of
  finite values can never spike).

The abstraction: each wire carries ``TimeInterval(lo, hi, may_be_absent,
may_spike)`` meaning *if* a spike occurs it lies in ``[lo, hi]``.
Transfer functions mirror the primitives and are proved sound in the
test suite against exhaustive concrete evaluation.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..core.value import Infinity, Time
from .graph import Network, NetworkError


@dataclass(frozen=True)
class TimeInterval:
    """Abstract value: possible spike window plus absence information."""

    lo: int = 0
    hi: int = 0
    may_be_absent: bool = False
    may_spike: bool = True

    def __post_init__(self) -> None:
        if self.may_spike and self.lo > self.hi:
            raise ValueError(f"empty spike window [{self.lo}, {self.hi}]")
        if not self.may_spike and not self.may_be_absent:
            raise ValueError("an interval must allow a spike or absence")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def exactly(cls, t: Time) -> "TimeInterval":
        if isinstance(t, Infinity):
            return cls.never()
        return cls(int(t), int(t))

    @classmethod
    def window(cls, lo: int, hi: int, *, may_be_absent: bool = False) -> "TimeInterval":
        return cls(lo, hi, may_be_absent=may_be_absent)

    @classmethod
    def never(cls) -> "TimeInterval":
        return cls(0, 0, may_be_absent=True, may_spike=False)

    # -- queries -------------------------------------------------------------
    def contains(self, t: Time) -> bool:
        """Is the concrete value *t* within this abstraction?"""
        if isinstance(t, Infinity):
            return self.may_be_absent
        return self.may_spike and self.lo <= int(t) <= self.hi

    @property
    def certain(self) -> bool:
        """True when the spike is guaranteed (never absent)."""
        return self.may_spike and not self.may_be_absent

    def __str__(self) -> str:
        if not self.may_spike:
            return "∅ (never spikes)"
        window = f"[{self.lo}, {self.hi}]"
        return f"{window}∪{{∞}}" if self.may_be_absent else window


def _shift(interval: TimeInterval, amount: int) -> TimeInterval:
    if not interval.may_spike:
        return interval
    return TimeInterval(
        interval.lo + amount,
        interval.hi + amount,
        may_be_absent=interval.may_be_absent,
        may_spike=True,
    )


def _meet(intervals: list[TimeInterval]) -> TimeInterval:
    """Transfer function of min (first arrival)."""
    spiking = [i for i in intervals if i.may_spike]
    if not spiking:
        return TimeInterval.never()
    lo = min(i.lo for i in spiking)
    hi = min(
        (i.hi for i in spiking if i.certain),
        default=max(i.hi for i in spiking),
    )
    absent = all(i.may_be_absent for i in intervals)
    return TimeInterval(lo, max(lo, hi), may_be_absent=absent)


def _join(intervals: list[TimeInterval]) -> TimeInterval:
    """Transfer function of max (last arrival): absent if ANY can be."""
    if not intervals:
        # The empty max is the constant 0 (its identity element).
        return TimeInterval(0, 0)
    if any(not i.may_spike for i in intervals):
        return TimeInterval.never()
    lo = max(i.lo for i in intervals)
    hi = max(i.hi for i in intervals)
    absent = any(i.may_be_absent for i in intervals)
    return TimeInterval(lo, hi, may_be_absent=absent)


def _race(a: TimeInterval, b: TimeInterval) -> TimeInterval:
    """Transfer function of lt: a passes iff strictly before b."""
    if not a.may_spike:
        return TimeInterval.never()
    # Can a ever win?  Needs some a-time strictly below some b-time or an
    # absent b.
    b_unbounded = b.may_be_absent or not b.may_spike
    can_win = b_unbounded or (b.may_spike and a.lo < b.hi)
    if not can_win:
        return TimeInterval.never()
    # Can a ever lose?  If b can spike at or before a's latest.
    can_lose = (
        a.may_be_absent or (b.may_spike and b.lo <= a.hi)
    )
    return TimeInterval(a.lo, a.hi, may_be_absent=can_lose)


def _kth(intervals: list[TimeInterval], k: int) -> TimeInterval:
    """Transfer function of rank *k*: the k-th smallest, absence last.

    Order statistics are monotone, so the k-th smallest of the ``lo``
    bounds and the k-th smallest of the ``hi`` bounds (each ``∞`` where
    the wire may be absent) bound the k-th smallest value.  When that
    ``hi`` is ``∞`` the row may be absent, and a spike it does fire is
    one of its sources' spikes, so no later than the latest ``hi``.
    """
    inf = float("inf")
    lo = sorted(i.lo if i.may_spike else inf for i in intervals)[k]
    if lo == inf:
        return TimeInterval.never()
    hi = sorted(inf if i.may_be_absent else i.hi for i in intervals)[k]
    if hi != inf:
        return TimeInterval(lo, hi)
    hi = max(i.hi for i in intervals if i.may_spike)
    return TimeInterval(lo, hi, may_be_absent=True)


def analyze(
    network: Network,
    inputs: Mapping[str, TimeInterval],
    *,
    params: Mapping[str, Time] | None = None,
) -> list[TimeInterval]:
    """Propagate intervals through the network; indexed by node id."""
    params = params or {}
    missing = set(network.input_ids) - set(inputs)
    if missing:
        raise NetworkError(f"unbound inputs: {sorted(missing)}")
    missing_p = set(network.param_ids) - set(params)
    if missing_p:
        raise NetworkError(f"unbound params: {sorted(missing_p)}")

    values: list[TimeInterval] = [TimeInterval.never()] * len(network.nodes)
    for node in network.nodes:
        if node.kind == "input":
            values[node.id] = inputs[node.name]
        elif node.kind == "param":
            values[node.id] = TimeInterval.exactly(params[node.name])
        elif node.kind == "inc":
            values[node.id] = _shift(values[node.sources[0]], node.amount)
        elif node.kind == "min":
            values[node.id] = _meet([values[s] for s in node.sources])
        elif node.kind == "max":
            values[node.id] = _join([values[s] for s in node.sources])
        elif node.kind == "rank":
            values[node.id] = _kth([values[s] for s in node.sources], node.amount)
        else:  # lt
            values[node.id] = _race(
                values[node.sources[0]], values[node.sources[1]]
            )
    return values


def output_intervals(
    network: Network,
    inputs: Mapping[str, TimeInterval],
    *,
    params: Mapping[str, Time] | None = None,
) -> dict[str, TimeInterval]:
    """Interval per named output."""
    values = analyze(network, inputs, params=params)
    return {name: values[nid] for name, nid in network.outputs.items()}


def makespan_bound(
    network: Network,
    inputs: Mapping[str, TimeInterval],
    *,
    params: Mapping[str, Time] | None = None,
) -> int:
    """Upper bound on the last possible spike time anywhere in the network.

    The safe horizon for the clocked GRL simulator and the minimum volley
    spacing for pipelined operation.
    """
    values = analyze(network, inputs, params=params)
    return max(
        (v.hi for v in values if v.may_spike),
        default=0,
    )


def default_input_window(network: Network, window: int) -> dict[str, TimeInterval]:
    """Every input may spike in ``[0, window]`` or stay silent."""
    interval = TimeInterval.window(0, window, may_be_absent=True)
    return dict.fromkeys(network.input_ids, interval)
