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
turn treats rank rows as opaque.  Only the compiled plan runs rank rows;
every other backend evaluates comparator-level programs
(:meth:`~repro.ir.program.Program.require_comparators`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Optional

import numpy as np

from ..network.blocks import Node
from ..network.sorting import bitonic_sort, odd_even_merge_sort
from .program import Program, ProgramLike, ensure_program

#: Sorter constructions a region may match, tried in this order.
ALGORITHMS = ("bitonic", "odd-even")

#: One Program per grouped source (dies with the source).
_GROUP_MEMO: "weakref.WeakKeyDictionary[Program, Program]" = (
    weakref.WeakKeyDictionary()
)


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


@lru_cache(maxsize=4)
def _canonical(algorithm: str, width: int):
    """``(is_max, handles, outputs)`` the named sorter emits over *width* lanes.

    ``is_max`` is ``(m,)`` bool, ``handles`` the ``(m, 2)`` source handles
    (:class:`_Recorder`), ``outputs`` the handle of each sorted position.
    """
    sort = bitonic_sort if algorithm == "bitonic" else odd_even_merge_sort
    recorder = _Recorder()
    outputs = sort(recorder, [-1 - lane for lane in range(width)])
    ops = np.array(recorder.ops, dtype=np.int64).reshape(-1, 3)
    return ops[:, 0].astype(bool), ops[:, 1:], tuple(outputs)


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
    lengths = np.fromiter(map(len, sources), np.int64, size)
    flat = np.fromiter(chain.from_iterable(sources), np.int64, int(lengths.sum()))
    reader = np.repeat(np.arange(size), lengths)
    internal = flat >= start
    outside.update(flat[~internal].tolist())
    # Coverage of each position p by edges (source, reader] inside the run.
    cover = np.bincount(flat[internal] - start + 1, minlength=size + 1)
    cover -= np.bincount(reader[internal] + 1, minlength=size + 1)
    pairs = np.array(
        [i for i in range(1, size) if sources[i] == sources[i - 1]], np.int64
    )
    cover[pairs] += 1
    cover[pairs + 1] -= 1
    firsts = np.flatnonzero(np.cumsum(cover[:size]) == 0).tolist()
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    external = np.concatenate(
        ([0], np.cumsum(np.bincount(reader[~internal], minlength=size)))
    )
    is_max = np.fromiter((node.kind == "max" for node in run), bool, size)
    sorters = []
    for first, last in zip(firsts, firsts[1:] + [size]):
        if np.any(lengths[first:last] != 2):
            continue
        sorter = _recognize(
            start + first,
            start + last,
            int(external[last] - external[first]) // 2,
            is_max[first:last],
            flat[offsets[first]:offsets[last]].reshape(-1, 2),
        )
        if sorter is not None:
            sorters.append(sorter)
    return sorters


def _recognize(start: int, stop: int, width: int, is_max, got) -> Optional[_Sorter]:
    """Region ``[start, stop)`` as a sorter of *width* lanes, or ``None``.

    *is_max* and *got* (its ``(m, 2)`` sources) describe the region.
    """
    if width < 2:
        return None
    for algorithm in ALGORITHMS:
        canon_max, handles, outputs = _canonical(algorithm, width)
        if len(canon_max) != stop - start or not np.array_equal(canon_max, is_max):
            continue
        node = handles >= 0
        if not np.array_equal(got[node], handles[node] + start):
            continue
        lane_of, wire = -1 - handles[~node], got[~node]
        if np.any(wire >= start):
            continue
        lanes = np.full(width, -1, dtype=np.int64)
        lanes[lane_of] = wire
        if np.array_equal(lanes[lane_of], wire) and lanes.min() >= 0:
            break
    else:
        return None
    if any(h is None or h < 0 for h in outputs):
        return None
    return _Sorter(
        start, stop, tuple(lanes.tolist()), tuple(start + h for h in outputs)
    )


def _lower(program: Program, sorters: list[_Sorter], outside: set[int]) -> Program:
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
    return Program(
        tuple(kept),
        {name: remap[old] for name, old in program.outputs.items()},
        name=program.name,
        provenance=kept_provenance,
    )


def group_sorters(source: ProgramLike) -> Program:
    """*source* with every recognized sorting network lowered to rank rows.

    Returns *source*'s own Program when no region qualifies, so the step
    is idempotent: a grouped program has no comparator regions left.
    Memoized weakly per program.
    """
    program = ensure_program(source)
    grouped = _GROUP_MEMO.get(program)
    if grouped is None:
        nodes = program.nodes
        runs = _runs(nodes)
        # Every wire read from outside the run it lives in.
        outside = set(program.outputs.values())
        in_run = bytearray(len(nodes))
        for start, stop in runs:
            in_run[start:stop] = b"\x01" * (stop - start)
        first = runs[0][0] if runs else len(nodes)
        for node in nodes[first:]:
            if not in_run[node.id]:
                outside.update(node.sources)
        sorters = [
            sorter
            for start, stop in runs
            for sorter in _split(nodes, start, stop, outside)
        ]
        sorters = [s for s in sorters if _contained(s, outside)]
        grouped = _lower(program, sorters, outside) if sorters else program
        _GROUP_MEMO[program] = grouped
    return grouped


def _contained(sorter: _Sorter, outside: set[int]) -> bool:
    """True unless an interior wire of *sorter* is read from outside it."""
    finals = set(sorter.finals)
    return not any(
        sorter.start <= wire < sorter.stop and wire not in finals
        for wire in outside
    )
