"""Sorting networks as standalone s-t networks (paper §IV.A.1, Fig. 10).

The comparator constructions themselves — :func:`bitonic_sort` (the
paper's choice) and :func:`odd_even_merge_sort` (the ablation) — live in
:mod:`repro.network.sorting`; this module builds whole sorter networks
from them and counts their comparators.
"""

from __future__ import annotations

from typing import Optional

from ..network.builder import NetworkBuilder
from ..network.sorting import bitonic_sort, odd_even_merge_sort

__all__ = [
    "bitonic_sort",
    "comparator_count",
    "odd_even_merge_sort",
    "sort_network",
    "theoretical_bitonic_comparators",
]


def sort_network(values_count: int, *, algorithm: str = "bitonic", name: Optional[str] = None):
    """Build a standalone sorting network over *values_count* inputs.

    Returns the built :class:`~repro.network.graph.Network` with inputs
    ``x0..`` and outputs ``s0..`` (ascending).  Mostly used by tests and
    the Fig. 10 benchmark; the SRM0 construction inlines the sorter via
    :func:`bitonic_sort` instead.
    """
    if values_count < 1:
        raise ValueError("need at least one input")
    builder = NetworkBuilder(name or f"{algorithm}-sort{values_count}")
    inputs = [builder.input(f"x{i}") for i in range(values_count)]
    if algorithm == "bitonic":
        outputs = bitonic_sort(builder, inputs)
    elif algorithm == "odd-even":
        outputs = odd_even_merge_sort(builder, inputs)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    for i, wire in enumerate(outputs):
        if wire is None:
            raise AssertionError("pad leaked into a no-pad sort")
        builder.output(f"s{i}", wire)
    return builder.build()


def comparator_count(network) -> int:
    """Number of comparators (min/max pairs) in a sorting network."""
    kinds = network.counts_by_kind()
    return max(kinds.get("min", 0), kinds.get("max", 0))


def theoretical_bitonic_comparators(n: int) -> int:
    """Comparator count of a full bitonic sorter for power-of-two *n*.

    ``(n/4) * log2(n) * (log2(n) + 1)`` — the classic closed form.
    """
    if n & (n - 1):
        raise ValueError("defined for powers of two")
    log = n.bit_length() - 1
    return (n * log * (log + 1)) // 4
