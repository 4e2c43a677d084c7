"""Sorter grouping: each recognized sorting network becomes ``rank`` rows.

The paper builds SRM0 from Batcher sorters (§IV.A.1, Figs. 10–12), and
on a served column the sorters are nearly the whole program.  A sorter's
external behaviour is simple — its outputs are its inputs in ascending
order — so any component with that behaviour may stand in for it.
:func:`group_sorters` puts IR-only ``rank`` rows
(:meth:`repro.network.blocks.Node.rank`) in its place: row ``k`` is the
``k``-th smallest of the sorter's input wires, ``∞`` last.  The compiled
plan runs all of one sorter's rows as a single sort kernel.

It recognizes; it does not trust tags:

1. **nominate** — each maximal id run of ``sort``-tagged ``min``/``max``
   nodes is cut into regions wherever no edge inside the run crosses (a
   source edge, or the ``min`` → ``max`` pair of one comparator, which
   share their sources).  When the run's connected regions are
   contiguous in ids, as a builder emits them, the cut finds exactly
   them;
2. **recognize** — a region is lowered only when it is exactly the
   comparator structure that :func:`~repro.network.sorting.bitonic_sort`
   or :func:`~repro.network.sorting.odd_even_merge_sort` emits for its
   width: the sorter is rebuilt by those same functions over a recording
   builder, and the region must match it node for node — kind, ordered
   sources and emission order.  The width comes from the region: each
   input lane is read by exactly one comparator, so by two nodes.  The
   check is linear in the region;
3. **contain** — a region whose interior wire (a comparator output that
   is not a sorter output) is read from outside it, or is a program
   output, is not lowered.

A lowered region's *read* outputs become rank rows, in the region's
place.  Each row's provenance is that of the comparator
whose fire time it reproduces; the interior comparators are no longer
observable and appear in no provenance tuple, like dead code.

Grouping must run before the optimizer sweep
(:func:`repro.ir.passes.optimize_program`): the sweep's rewrites change
comparators, so the canonical shape is gone afterwards.  The sweep in
turn treats rank rows as opaque.  Every backend runs rank rows and the
spike tracer names their causes; only a model document
(:func:`repro.network.serialize.dumps`) refuses them.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from operator import itemgetter
from typing import Optional

from ..network.blocks import Node
from ..network.graph import Network
from ..network.sorting import bitonic_sort, odd_even_merge_sort

#: Sorter constructions a region may match, tried in this order.
ALGORITHMS = ("bitonic", "odd-even")

#: One grouped network per source network (dies with the source).
_GROUP_MEMO: "weakref.WeakKeyDictionary[Network, object]" = (
    weakref.WeakKeyDictionary()
)
#: The memo's value for a source with no sorter to group.
_UNCHANGED = object()


@dataclass(frozen=True)
class _Sorter:
    """One recognized region: node ids ``start..stop-1``, lowered."""

    start: int
    stop: int
    #: The wire on each input lane, in lane order (duplicates allowed).
    lanes: tuple[int, ...]
    #: Comparator id of each sorter output, ascending rank order.
    finals: tuple[int, ...]


class _Recorder:
    """A builder stand-in that records the comparators a sorter emits.

    Handles are ints: input lane ``i`` is ``-1 - i``, emitted node ``j``
    is ``j``.
    """

    def __init__(self) -> None:
        self.ops: list[tuple[bool, int, int]] = []

    def min(self, a: int, b: int, tag: str = "") -> int:
        self.ops.append((False, a, b))
        return len(self.ops) - 1

    def max(self, a: int, b: int, tag: str = "") -> int:
        self.ops.append((True, a, b))
        return len(self.ops) - 1


def _getter(positions: "list[int]"):
    """``seq -> tuple(seq[i] for i in positions)``, one C call per use."""
    if len(positions) == 1:
        (only,) = positions
        return lambda seq: (seq[only],)
    if not positions:
        return lambda seq: ()
    return itemgetter(*positions)


@dataclass(frozen=True)
class _Canonical:
    """The comparators a named sorter emits over *width* lanes, pre-indexed.

    A region's sources are matched against it as one flat list, two
    entries per comparator node: the ``node_rel`` entries must read the
    region's own nodes at exactly these offsets, and the lane entries
    must name one outside wire per lane.
    """

    #: ``"min"`` / ``"max"`` of each emitted node, in emission order.
    kinds: tuple[str, ...]
    #: Flat source entries that read an emitted node, and its offset.
    node_at: Callable
    node_rel: tuple[int, ...]
    #: Each lane's first flat source entry, in lane order.
    lane_at: Callable
    #: Every later entry of a lane, and the lane it must repeat.
    repeat_at: Callable
    repeat_lane: tuple[int, ...]
    #: The handle of each sorted position (see :class:`_Recorder`).
    outputs: tuple


@lru_cache(maxsize=4)
def _canonical(algorithm: str, width: int) -> Optional[_Canonical]:
    """The named sorter over *width* lanes, or ``None`` if a lane goes unread."""
    sort = bitonic_sort if algorithm == "bitonic" else odd_even_merge_sort
    recorder = _Recorder()
    outputs = sort(recorder, [-1 - lane for lane in range(width)])
    handles = [h for _is_max, a, b in recorder.ops for h in (a, b)]
    node_at = [i for i, h in enumerate(handles) if h >= 0]
    first: dict[int, int] = {}
    repeat_at: list[int] = []
    for i, h in enumerate(handles):
        if h < 0:
            if -1 - h in first:
                repeat_at.append(i)
            else:
                first[-1 - h] = i
    if len(first) != width:
        return None
    return _Canonical(
        kinds=tuple(["max" if is_max else "min" for is_max, _a, _b in recorder.ops]),
        node_at=_getter(node_at),
        node_rel=tuple([handles[i] for i in node_at]),
        lane_at=_getter([first[lane] for lane in range(width)]),
        repeat_at=_getter(repeat_at),
        repeat_lane=tuple([-1 - handles[i] for i in repeat_at]),
        outputs=tuple(outputs),
    )


def _runs(nodes) -> list[tuple[int, int]]:
    """Maximal ``[start, stop)`` id runs of ``sort``-tagged ``min``/``max``."""
    runs = []
    start = -1
    for node in nodes:
        if (node.kind == "min" or node.kind == "max") and "sort" in node.tags:
            if start < 0:
                start = node.id
        elif start >= 0:
            runs.append((start, node.id))
            start = -1
    if start >= 0:
        runs.append((start, len(nodes)))
    return runs


def _split(nodes, start: int, stop: int, outside: set[int]) -> list[_Sorter]:
    """The sorters among the regions of run ``[start, stop)``.

    A region is a maximal id interval that no in-run edge crosses (a
    comparator's ``min``→``max`` pair counts as an edge).  That equals
    the run's connected regions whenever they are contiguous in ids; a
    region that is not cannot be a sorter the builder emitted, and its
    interval fails the match.  External reads are added to *outside*.
    """
    run = nodes[start:stop]
    size = stop - start
    sources = [node.sources for node in run]
    lengths = list(map(len, sources))
    offsets = [0, *accumulate(lengths)]
    flat = list(chain.from_iterable(sources))
    external = [i for i, w in enumerate(flat) if w < start]
    outside.update([flat[i] for i in external])
    # A cut before position p is crossed when a reader at or after p
    # reads a run wire before p.  Scan back from the end with the least
    # run wire read so far (an outside read crosses nothing): every
    # position after it is crossed, so jump to it.
    reads = flat[:]
    for i in external:
        reads[i] = stop
    cuts = []
    p = size - 1
    least = min(reads[offsets[p]:], default=stop)
    while p > 0:
        if least >= start + p:
            if sources[p] != sources[p - 1]:
                cuts.append(p)
            p -= 1
            least = min(least, min(reads[offsets[p]:offsets[p + 1]], default=stop))
        else:
            jump = least - start
            least = min(least, min(reads[offsets[jump]:offsets[p]], default=stop))
            p = jump
    firsts = [0, *reversed(cuts)]
    sorters = []
    for first, last in zip(firsts, firsts[1:] + [size]):
        if lengths[first:last].count(2) != last - first:
            continue
        lo, hi = offsets[first], offsets[last]
        sorter = _recognize(
            start + first,
            start + last,
            (bisect_left(external, hi) - bisect_left(external, lo)) // 2,
            tuple([node.kind for node in run[first:last]]),
            flat[lo:hi],
        )
        if sorter is not None:
            sorters.append(sorter)
    return sorters


def _recognize(start: int, stop: int, width: int, kinds, got) -> Optional[_Sorter]:
    """Region ``[start, stop)`` as a sorter of *width* lanes, or ``None``.

    *kinds* and *got* (its flat sources, two per node) describe the region.
    """
    if width < 2:
        return None
    for algorithm in ALGORITHMS:
        canon = _canonical(algorithm, width)
        if canon is None or canon.kinds != kinds:
            continue
        if canon.node_at(got) != tuple([start + h for h in canon.node_rel]):
            continue
        lanes = canon.lane_at(got)
        if max(lanes) >= start:
            continue
        if canon.repeat_at(got) == tuple(map(lanes.__getitem__, canon.repeat_lane)):
            break
    else:
        return None
    if any(h is None or h < 0 for h in canon.outputs):
        return None
    return _Sorter(start, stop, lanes, tuple(start + h for h in canon.outputs))


def _lower(program: Network, sorters: list[_Sorter], outside: set[int]) -> Network:
    """Rebuild *program* with each sorter's read outputs as rank rows.

    *sorters* are in id order.  A sorter's node ids are contiguous and
    all of them go, so its rank rows take its place, and only the nodes
    after the first sorter are renumbered.
    """
    nodes = program.nodes
    provenance = program.provenance
    remap = list(range(len(nodes)))
    kept: list[Node] = list(nodes[: sorters[0].start])
    kept_provenance = {i: provenance[i] for i in range(len(kept))}
    ends = [sorter.start for sorter in sorters[1:]] + [len(nodes)]
    for sorter, end in zip(sorters, ends):
        lanes = tuple([remap[w] for w in sorter.lanes])
        for k, old in enumerate(sorter.finals):
            if old in outside:
                new = remap[old] = len(kept)
                kept.append(Node.rank(new, lanes, k, nodes[old].tags))
                kept_provenance[new] = provenance[old]
        for node in nodes[sorter.stop:end]:
            new = remap[node.id] = len(kept)
            kept_provenance[new] = provenance[node.id]
            kept.append(
                Node(
                    new,
                    node.kind,
                    tuple([remap[s] for s in node.sources]),
                    node.amount,
                    node.name,
                    node.tags,
                )
            )
    return Network(
        tuple(kept),
        {name: remap[old] for name, old in program.outputs.items()},
        name=program.name,
        provenance=kept_provenance,
    )


def group_sorters(program: Network) -> Network:
    """*program* with every recognized sorting network lowered to rank rows.

    Returns *program* itself when no region qualifies, so the step is
    idempotent: a grouped program has no comparator regions left.
    Memoized weakly per network.
    """
    grouped = _GROUP_MEMO.get(program)
    if grouped is None:
        nodes = program.nodes
        runs = _runs(nodes)
        # Every wire read from outside the run it lives in.
        outside = set(program.outputs.values())
        gap_ends = [start for start, _ in runs[1:]] + [len(nodes)]
        for (_, stop), end in zip(runs, gap_ends):
            for node in nodes[stop:end]:
                outside.update(node.sources)
        sorters = [
            sorter
            for start, stop in runs
            for sorter in _split(nodes, start, stop, outside)
        ]
        sorters = [s for s in sorters if _contained(s, outside)]
        # A memo value that is its own key would keep the key alive.
        grouped = _lower(program, sorters, outside) if sorters else _UNCHANGED
        _GROUP_MEMO[program] = grouped
    return program if grouped is _UNCHANGED else grouped


def _contained(sorter: _Sorter, outside: set[int]) -> bool:
    """True unless an interior wire of *sorter* is read from outside it."""
    finals = set(sorter.finals)
    return not any(
        sorter.start <= wire < sorter.stop and wire not in finals
        for wire in outside
    )
