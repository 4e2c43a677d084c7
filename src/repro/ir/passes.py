"""The shared optimizer: one value-numbering sweep, then dead-node removal.

Every backend consumes the same :class:`~repro.ir.program.Program`, so
an optimization implemented here — once — speeds up the compiled batch
engine, the interpreted walk, the event simulator, and the GRL netlist
alike.  :func:`optimize_program` runs two steps and reports the node
count after each:

* ``simplify`` — one topological sweep (value numbering).  Each node's
  sources are first mapped to ids that are already canonical; the node
  is then rewritten by the rules below and hash-consed, so common
  subexpressions merge in the same sweep that rewrites them:

  - the lattice identities: zero-source ``min`` (the lattice top ``∞``)
    and ``lt(x, x)`` fold to *never*, which consumers absorb
    (``min(x, never) = x``, ``max(x, never) = never``, ``lt(never, y)
    = never``, ``lt(x, never) = x``, ``inc(never) = never``).  The
    single owner of the zero-source identity rule — no backend
    re-derives it;
  - ``min``/``max`` deduplicate and sort their sources (both ops are
    commutative and idempotent) and a single source collapses to a
    wire; ``lt`` is neither, so its key stays positional;
  - known-value folding of cones rooted at ``const0`` (zero-source
    ``max``) and, when a parameter binding is supplied, at pinned
    ``param`` lines: ``min`` with a 0 source is 0, ``max`` drops 0
    sources, ``lt`` against 0 never fires, fully known ``min``/``max``/
    ``lt`` fold outright — always by aliasing the node that already
    carries the value;
  - ``inc(inc(x, a), b)`` → ``inc(x, a + b)``; a total delay of 0
    collapses to a wire;
  - ``rank`` rows (:mod:`repro.ir.sorters`) are opaque: their sources
    are canonicalized but keep their order and duplicates (a never wire
    becomes a real ∞ row, so the width stays), nothing folds through
    them, and they hash-cons on ``(rank, k, sources)``.

  Because every source is canonical before its consumer is visited,
  one sweep is a fixpoint: re-optimizing the output changes nothing.
* ``dce`` — dead-node elimination: compute nodes feeding no output are
  dropped (terminals always survive — the interface is frozen).  The
  sweep emits plain rows, so each surviving node is built once, here.

Both steps preserve the program interface (input/param/output names)
and the denotational semantics, and compose the **provenance map**:
each output node represents a set of original-network nodes whose fire
times it reproduces exactly.  That invariant is what keeps optimized
and unoptimized spike traces comparable
(:func:`repro.obs.trace.project_events`) and is property-checked by the
conformance suite.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional

from ..core.value import INF, Time
from ..network.blocks import Node
from .program import Program, ProgramLike, ensure_program, same_structure

#: Sentinel for a wire that provably never spikes.
_NEVER = -1


# ---------------------------------------------------------------------------
# The rewrite engine
# ---------------------------------------------------------------------------

class _Rewriter:
    """Accumulates a rewritten row table plus the old→new mapping.

    Rows are plain ``(kind, sources, amount, name, tags)`` tuples;
    :meth:`finish` drops the dead ones and builds each surviving
    :class:`Node` once.
    """

    def __init__(self, program: Program):
        self.program = program
        self.rows: list[tuple] = []
        self.result: dict[int, int] = {}  # old id -> new id, or _NEVER
        self.seen: dict[tuple, int] = {}
        self._never_wire: Optional[int] = None
        #: Rank rows of one sorter share one source tuple: canonicalize
        #: it (and, in :meth:`finish`, renumber it) once per sorter.
        self.lanes: dict[tuple[int, ...], tuple[int, ...]] = {}

    def emit(
        self,
        kind: str,
        sources: tuple[int, ...] = (),
        amount: int = 1,
        name: Optional[str] = None,
        tags: tuple[str, ...] = (),
    ) -> int:
        self.rows.append((kind, sources, amount, name, tags))
        return len(self.rows) - 1

    def get_or_emit(
        self,
        key: tuple,
        kind: str,
        sources: tuple[int, ...],
        amount: int = 1,
        tags: tuple[str, ...] = (),
    ) -> int:
        new = self.seen.get(key)
        if new is None:
            new = self.seen[key] = self.emit(kind, sources, amount, None, tags)
        return new

    def never_wire(self) -> int:
        """A (shared) wire that is identically ``∞``: ``lt(w, w)``.

        Anchored on the first emitted row — every program has at least
        one terminal, and terminals are always re-emitted.
        """
        if self._never_wire is None:
            self._never_wire = self.emit("lt", (0, 0), tags=("never",))
        return self._never_wire

    def finish(self) -> tuple[Program, int]:
        """Close the rewrite: outputs, dead-row removal, provenance, Program.

        Compute rows feeding no output are dropped (terminals are kept
        even when dead — the program interface, input and parameter
        declaration order, is frozen by the optimizer).  Returns the
        program and the row count before the drop.
        """
        rows = self.rows
        outputs: dict[str, int] = {}
        never_roots: set[int] = set()
        for out_name, old in self.program.outputs.items():
            new = self.result[old]
            if new == _NEVER:
                new = self.never_wire()
                never_roots.update(self.program.provenance[old])
            outputs[out_name] = new
        # Sources precede consumers, so one reverse scan marks the live set.
        live = [row[0] == "input" or row[0] == "param" for row in rows]
        for new in outputs.values():
            live[new] = True
        marked: tuple[int, ...] = ()
        for row_id in range(len(rows) - 1, -1, -1):
            if live[row_id] and rows[row_id][1] is not marked:
                marked = rows[row_id][1]  # rank rows share their sources
                for src in marked:
                    live[src] = True
        prov_sets: dict[int, set[int]] = {}
        for old, new in self.result.items():
            if new != _NEVER:
                prov_sets.setdefault(new, set()).update(
                    self.program.provenance[old]
                )
        if self._never_wire is not None:
            prov_sets[self._never_wire] = never_roots
        remap: list[int] = [-1] * len(rows)
        nodes: list[Node] = []
        provenance: dict[int, tuple[int, ...]] = {}
        renumbered: dict[tuple[int, ...], tuple[int, ...]] = {}
        for row_id, (kind, sources, amount, name, tags) in enumerate(rows):
            if live[row_id]:
                remap[row_id] = new = len(nodes)
                if kind == "rank":
                    lanes = renumbered.get(sources)
                    if lanes is None:
                        lanes = renumbered[sources] = tuple([remap[s] for s in sources])
                    nodes.append(Node.rank(new, lanes, amount, tags))
                else:
                    sources = tuple([remap[s] for s in sources])
                    nodes.append(Node(new, kind, sources, amount, name, tags))
                provenance[new] = tuple(sorted(prov_sets.get(row_id, ())))
        return Program(
            tuple(nodes),
            {out_name: remap[new] for out_name, new in outputs.items()},
            name=self.program.name,
            provenance=provenance,
        ), len(rows)


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

def _rewrite(rw: _Rewriter, known: dict[int, Time], node: Node) -> int:
    """The canonical id of compute *node* (sources already canonical)."""
    kind = node.kind
    if kind == "rank":
        sources = rw.lanes.get(node.sources)
        if sources is None:
            sources = [rw.result[s] for s in node.sources]
            if _NEVER in sources:
                never = rw.never_wire()
                sources = [never if s == _NEVER else s for s in sources]
            sources = rw.lanes[node.sources] = tuple(sources)
        return rw.get_or_emit(
            ("rank", node.amount, sources), "rank", sources, node.amount, node.tags
        )
    sources = [rw.result[s] for s in node.sources]
    if kind == "inc":
        src, amount = sources[0], node.amount
        value = known.get(src)
        if value is INF:
            return _NEVER
        feeder_kind, feeder_sources, feeder_amount, _, _ = rw.rows[src]
        if feeder_kind == "inc":
            src, amount = feeder_sources[0], amount + feeder_amount
        if amount == 0:
            return src
        new = rw.get_or_emit(
            ("inc", src, amount), "inc", (src,), amount, node.tags
        )
        if value is not None:
            known[new] = value + node.amount
        return new

    if kind == "lt":
        a, b = sources
        va, vb = known.get(a), known.get(b)
        if a == b or va is INF or vb == 0:
            # Nothing strictly precedes itself or 0; ∞ precedes nothing.
            return _NEVER
        if vb is INF:
            return a
        if va is not None and vb is not None:
            return a if va < vb else _NEVER
        return rw.get_or_emit(("lt", a, b), "lt", (a, b), tags=node.tags)

    if kind == "max" and not sources:
        # The empty max is the constant 0 — a real value; keep one.
        new = rw.get_or_emit(("max", ()), "max", (), tags=node.tags)
        known[new] = 0
        return new
    kept = sorted(set(sources))
    if kind == "min":
        # ∞ sources drop out; with none left the min is the top, ∞.
        kept = [s for s in kept if known.get(s) is not INF]
        zeros = [s for s in kept if known.get(s) == 0]
        if zeros:
            return zeros[0]  # min(x, 0) = 0: alias the 0-valued source
        if not kept:
            return _NEVER
    else:
        if any(known.get(s) is INF for s in kept):
            return _NEVER
        nonzero = [s for s in kept if known.get(s) != 0]
        if not nonzero:
            return kept[0]  # max of all-0 sources is 0: alias one
        kept = nonzero
    if all(s in known for s in kept):
        if kind == "min":
            return min(kept, key=lambda s: (known[s], s))
        return max(kept, key=lambda s: (known[s], -s))
    if len(kept) == 1:
        return kept[0]
    return rw.get_or_emit(
        (kind, tuple(kept)), kind, tuple(kept), tags=node.tags
    )


def _simplify(
    program: Program, params: Optional[Mapping[str, Time]]
) -> _Rewriter:
    """The value-numbering sweep (see the module doc for its rules)."""
    rw = _Rewriter(program)
    known: dict[int, Time] = {_NEVER: INF}  # new id -> provably constant value
    for node in program.nodes:
        if not node.is_terminal:
            rw.result[node.id] = _rewrite(rw, known, node)
            continue
        new = rw.result[node.id] = rw.emit(node.kind, name=node.name)
        if node.kind == "param" and params and node.name in params:
            pinned = params[node.name]
            if pinned is INF or pinned == 0:
                known[new] = pinned
    return rw


# ---------------------------------------------------------------------------
# The optimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineReport:
    """Node counts around the two steps of one :func:`optimize_program`."""

    before_nodes: int
    simplified_nodes: int
    after_nodes: int

    @property
    def removed(self) -> int:
        return self.before_nodes - self.after_nodes

    def _steps(self) -> tuple[tuple[str, int, int], ...]:
        return (
            ("simplify", self.before_nodes, self.simplified_nodes),
            ("dce", self.simplified_nodes, self.after_nodes),
        )

    def by_pass(self) -> dict[str, int]:
        """Nodes removed per step (``simplify``, ``dce``)."""
        return {name: before - after for name, before, after in self._steps()}

    def describe(self) -> str:
        """The step-by-step node-count report (CLI and bench surface)."""
        lines = [f"pipeline: {self.before_nodes} -> {self.after_nodes} nodes"]
        for name, before, after in self._steps():
            removed = before - after
            marker = f"-{removed}" if removed else "·"
            lines.append(f"  {name:<9} {before:>5} -> {after:<5} ({marker})")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


def optimize_program(
    source: ProgramLike,
    *,
    params: Optional[Mapping[str, Time]] = None,
) -> tuple[Program, PipelineReport]:
    """Simplify *source* in one sweep, then strip dead nodes.

    *params*, when given, additionally specializes ``param`` cones to
    that binding — only sound when the resulting program is run under
    the same binding.  Returns ``(program, report)``; the program is
    *source*'s own Program object when neither step changes anything.
    """
    program = ensure_program(source)
    optimized, simplified = _simplify(program, params).finish()
    if same_structure(optimized, program):
        optimized = program
    return optimized, PipelineReport(len(program), simplified, len(optimized))
