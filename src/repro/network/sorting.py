"""Sorting networks from min/max comparators (paper §IV.A.1, Fig. 10).

Sort is causal and invariant, so it is a legal s-t building block; the
paper uses Batcher's bitonic network of two-output comparators — each a
``min`` node plus a ``max`` node, tagged ``sort`` — as the core of the
SRM0 construction.

Two constructions are provided:

* :func:`bitonic_sort` — the paper's choice.  Defined for power-of-two
  widths; other widths are handled by *virtual padding*: the network is
  laid out for the next power of two with ``∞`` (never-spiking) pad wires,
  and every comparator touching a pad is constant-folded away
  (``min(x, ∞) = x``, ``max(x, ∞) = ∞``), so the emitted network contains
  only real comparators.
* :func:`odd_even_merge_sort` — Batcher's other network, with fewer
  comparators; used as an ablation in the Fig. 10 benchmark.

Both return the sorted output wires ascending; with pads, trailing
positions may be ``None`` meaning "provably ∞" (fewer real spikes than
wires), which consumers treat as absent.  They live beside the builder,
not in :mod:`repro.neuron`, because the IR's sorter recognizer
(:mod:`repro.ir.sorters`) replays them to learn each width's canonical
shape, and a serving worker must not import the neuron package for it.
"""

from __future__ import annotations

from typing import Optional

from ..network.builder import NetworkBuilder, Source

#: A wire that provably never spikes (folded ∞ pad).
PadWire = None
Wire = Optional[Source]


def _comparator(builder: NetworkBuilder, a: Wire, b: Wire) -> tuple[Wire, Wire]:
    """Compare-exchange with ∞-pad folding: returns (low, high)."""
    if a is None and b is None:
        return None, None
    if a is None:
        return b, None
    if b is None:
        return a, None
    return builder.min(a, b, tag="sort"), builder.max(a, b, tag="sort")


def _next_power_of_two(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def bitonic_sort(builder: NetworkBuilder, wires: list[Source]) -> list[Wire]:
    """Emit a bitonic sorting network; returns wires sorted ascending.

    Uses the standard iterative index schedule; pads (``None``) flow
    through comparators by folding, so arbitrary input counts are
    supported while emitting only real ``min``/``max`` nodes.
    """
    n = len(wires)
    if n == 0:
        return []
    if n == 1:
        return list(wires)
    size = _next_power_of_two(n)
    lanes: list[Wire] = list(wires) + [None] * (size - n)

    k = 2
    while k <= size:
        j = k // 2
        while j >= 1:
            for i in range(size):
                partner = i ^ j
                if partner > i:
                    ascending = (i & k) == 0
                    lo, hi = _comparator(builder, lanes[i], lanes[partner])
                    if ascending:
                        lanes[i], lanes[partner] = lo, hi
                    else:
                        lanes[i], lanes[partner] = hi, lo
            j //= 2
        k *= 2
    return lanes[:n] if all(w is None for w in lanes[n:]) else _compact(lanes, n)


def odd_even_merge_sort(builder: NetworkBuilder, wires: list[Source]) -> list[Wire]:
    """Batcher's odd-even merge sort network (ablation alternative)."""
    n = len(wires)
    if n == 0:
        return []
    size = _next_power_of_two(n)
    lanes: list[Wire] = list(wires) + [None] * (size - n)

    def sort_range(lo: int, length: int) -> None:
        if length <= 1:
            return
        half = length // 2
        sort_range(lo, half)
        sort_range(lo + half, half)
        merge(lo, length, 1)

    def merge(lo: int, length: int, stride: int) -> None:
        step = stride * 2
        if step < length:
            merge(lo, length, step)
            merge(lo + stride, length, step)
            for i in range(lo + stride, lo + length - stride, step):
                a, b = _comparator(builder, lanes[i], lanes[i + stride])
                lanes[i], lanes[i + stride] = a, b
        else:
            a, b = _comparator(builder, lanes[lo], lanes[lo + stride])
            lanes[lo], lanes[lo + stride] = a, b

    sort_range(0, size)
    return _compact(lanes, n)


def _compact(lanes: list[Wire], n: int) -> list[Wire]:
    """Keep the first *n* lanes (pads beyond carry no information).

    After a full ascending sort, every pad (∞) lane has sunk below all
    real lanes, so the first *n* lanes hold the sorted real values —
    though some may themselves be pads when folding proved a position is
    always ∞ (never happens for the first n positions of a correct sort,
    kept defensive).
    """
    return lanes[:n]
