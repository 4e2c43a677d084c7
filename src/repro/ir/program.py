"""The canonical intermediate representation of space-time networks.

A :class:`Program` is the *one* lowering every execution backend
consumes.  Where :class:`~repro.network.graph.Network` is the user-facing
construction surface (built with a builder, serialized, mutated by test
shrinkers), a ``Program`` is a frozen, topologically *scheduled* view of
the same node table:

* a typed node table (the :class:`~repro.network.blocks.Node` kinds of
  the algebra: ``input``/``param`` terminals, ``inc``/``min``/``max``/
  ``lt`` compute blocks),
* a **level schedule** — nodes grouped by longest structural distance
  from a source-free node, the order every backend executes in (the
  compiled engine fuses whole levels, the event simulator seeds its
  queues from level 0, the interpreted walk visits level by level),
* input/param/output maps identical to the network's,
* a stable **fingerprint** (same hash the network carries — the
  served model id),
* the program's **compiled plan**, built on first use by
  :func:`~repro.network.compile_plan.compile_plan` and kept here, so a
  plan lives exactly as long as its program,
* a **provenance map** — program node id → the original network node
  ids whose fire times the node represents.  The identity map for a
  fresh lowering; the optimizer composes it, which is what keeps
  optimized and unoptimized spike traces comparable
  (:func:`repro.obs.trace.project_events`).

A program may also carry IR-only ``rank`` rows — the ``k``-th smallest
of their sources — which :func:`repro.ir.sorters.group_sorters` puts in
place of each recognized sorting network.  Only the compiled plan runs
them (one sort kernel per sorter); the interpreted, event-driven and
GRL backends evaluate comparator-level programs and refuse ranked ones
(:attr:`Program.rank_ids`), and :meth:`Program.to_network` does too, so
a ``rank`` row never reaches a :class:`~repro.network.graph.Network` or
a model document.

The IR is also the single owner of the **zero-source identity** rule:
a ``min`` with no sources is the lattice top (``∞`` — it never fires),
a ``max`` with no sources is the lattice bottom (it fires at 0).
Backends ask :func:`classify` / :data:`CONST_IDENTITY` instead of
re-deriving the rule; the optimizer's sweep
(:mod:`repro.ir.passes`) folds the constants away entirely where the
lattice laws allow.
"""

from __future__ import annotations

import hashlib
import weakref
from collections.abc import Mapping
from typing import Optional, Union

from ..core.value import INF, Time
from ..network.blocks import Node
from ..network.graph import Network, NetworkError

#: Schedule classes a node can lower to.  Zero-source ``min``/``max``
#: are *constants*, not reductions — this classification (and the
#: identity values below) is the single source of truth all four
#: backends consult.
NODE_CLASSES = (
    "input", "param", "inc", "min", "max", "lt", "rank", "const-inf", "const-zero",
)

#: The lattice identity each zero-source constant evaluates to.
CONST_IDENTITY: dict[str, Time] = {"const-inf": INF, "const-zero": 0}


def classify(node: Node) -> str:
    """The schedule class of *node* (zero-source min/max → constants)."""
    if node.kind in ("min", "max") and not node.sources:
        return "const-inf" if node.kind == "min" else "const-zero"
    return node.kind


class Program:
    """A frozen, topologically-scheduled s-t program.

    Structurally a :class:`~repro.network.graph.Network` twin — same
    node table, same terminal/output maps, same fingerprint algorithm —
    plus the level schedule and provenance the backends and the pass
    pipeline need.  Build one with :func:`lower` (memoized) or receive
    one from :func:`~repro.ir.passes.optimize_program`.
    """

    __slots__ = (
        "nodes",
        "outputs",
        "name",
        "input_ids",
        "param_ids",
        "levels",
        "schedule",
        "provenance",
        "const_ids",
        "rank_ids",
        "_fingerprint",
        "_consumers",
        "_plan",
        "__weakref__",
    )

    def __init__(
        self,
        nodes: tuple[Node, ...],
        outputs: Mapping[str, int],
        *,
        name: str = "program",
        provenance: Optional[dict[int, tuple[int, ...]]] = None,
    ):
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.name = name
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise NetworkError(
                    f"program node ids must be dense and ordered; node #{i} "
                    f"has id {node.id}"
                )
        self.outputs: dict[str, int] = dict(outputs)
        for out_name, node_id in self.outputs.items():
            if not 0 <= node_id < len(self.nodes):
                raise NetworkError(
                    f"output {out_name!r} references missing node {node_id}"
                )
        self.input_ids: dict[str, int] = {
            n.name: n.id for n in self.nodes if n.kind == "input"
        }
        self.param_ids: dict[str, int] = {
            n.name: n.id for n in self.nodes if n.kind == "param"
        }
        # -- the level schedule ------------------------------------------------
        levels = [0] * len(self.nodes)
        previous: tuple[int, ...] = ()
        level = 0
        for node in self.nodes:
            if node.sources:
                # Rank rows of one sorter share one source tuple.
                if node.sources is not previous:
                    previous = node.sources
                    level = 1 + max(map(levels.__getitem__, previous))
                levels[node.id] = level
        self.levels: tuple[int, ...] = tuple(levels)
        by_level: list[list[int]] = [[] for _ in range(max(levels, default=0) + 1)]
        for node in self.nodes:
            by_level[levels[node.id]].append(node.id)
        self.schedule: tuple[tuple[int, ...], ...] = tuple(
            tuple(ids) for ids in by_level
        )
        #: Zero-source min/max nodes — the lattice identity constants.
        self.const_ids: tuple[int, ...] = tuple(
            n.id for n in self.nodes if classify(n).startswith("const-")
        )
        #: IR-only ``rank`` rows (:mod:`repro.ir.sorters`).
        self.rank_ids: tuple[int, ...] = tuple(
            n.id for n in self.nodes if n.kind == "rank"
        )
        #: program node id -> original node ids it represents (fire-time
        #: equal).  Identity unless the optimizer rewrote the program.
        self.provenance: dict[int, tuple[int, ...]] = (
            dict(provenance)
            if provenance is not None
            else {n.id: (n.id,) for n in self.nodes}
        )
        self._fingerprint: Optional[str] = None
        self._consumers: Optional[list[list[int]]] = None
        #: The compiled plan (:func:`~repro.network.compile_plan.compile_plan`).
        self._plan = None

    # -- introspection ----------------------------------------------------------
    @property
    def input_names(self) -> list[str]:
        return list(self.input_ids)

    @property
    def param_names(self) -> list[str]:
        return list(self.param_ids)

    @property
    def output_names(self) -> list[str]:
        return list(self.outputs)

    @property
    def size(self) -> int:
        """Number of compute nodes (excludes inputs and params)."""
        return sum(1 for n in self.nodes if not n.is_terminal)

    @property
    def depth(self) -> int:
        """Number of schedule levels past the sources."""
        return len(self.schedule) - 1 if self.schedule else 0

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}: {len(self.input_ids)} in, "
            f"{len(self.param_ids)} params, {self.size} blocks, "
            f"{len(self.schedule)} levels, {len(self.outputs)} out)"
        )

    def consumers(self) -> list[list[int]]:
        """For each node id, the ids of nodes that read its output (cached)."""
        if self._consumers is None:
            fanout: list[list[int]] = [[] for _ in self.nodes]
            for node in self.nodes:
                for src in node.sources:
                    fanout[src].append(node.id)
            self._consumers = fanout
        return self._consumers

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.nodes:
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts

    def fingerprint(self) -> str:
        """Stable structural hash — bit-identical to
        :meth:`Network.fingerprint` on the same node table, so an
        unoptimized lowering and its source network share one compiled
        plan; any rewrite that changes structure changes the key."""
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for node in self.nodes:
                digest.update(
                    repr(
                        (
                            node.kind,
                            node.sources,
                            node.amount if node.kind in ("inc", "rank") else 0,
                            node.name or "",
                        )
                    ).encode()
                )
            digest.update(repr(list(self.outputs.items())).encode())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def require_comparators(self, consumer: str) -> None:
        """Raise :class:`NetworkError` if this program has ``rank`` rows.

        *consumer* names what refused them, for the message.
        """
        if self.rank_ids:
            raise NetworkError(
                f"{consumer} cannot run rank row {self.rank_ids[0]}: rank "
                "rows are IR-only and run on the compiled plan; use the "
                "program before group_sorters"
            )

    # -- conversion ----------------------------------------------------------
    def to_network(self, *, name: Optional[str] = None) -> Network:
        """Materialize back into a :class:`Network` (same node table)."""
        self.require_comparators("a Network")
        return Network(self.nodes, dict(self.outputs), name=name or self.name)

    def pretty(self) -> str:
        """A readable scheduled dump: one node per line, grouped by level."""
        lines = [f"program {self.name} ({len(self.schedule)} levels)"]
        for level, ids in enumerate(self.schedule):
            lines.append(f"  level {level}:")
            for node_id in ids:
                node = self.nodes[node_id]
                marker = "".join(
                    f"  -> output {out!r}"
                    for out, nid in self.outputs.items()
                    if nid == node_id
                )
                lines.append(f"    [{node_id:>4}] {node.describe()}{marker}")
        return "\n".join(lines)


ProgramLike = Union[Network, Program]

#: Lowering memo: one Program per live Network (dies with the network).
_LOWER_MEMO: "weakref.WeakKeyDictionary[Network, Program]" = (
    weakref.WeakKeyDictionary()
)


def lower(network: Network) -> Program:
    """Lower *network* into its canonical :class:`Program` (memoized).

    The lowering is structural and loss-free: it shares the network's
    (immutable) node tuple, copies the output map, and computes the
    level schedule once.  Memoized weakly per network object, so every
    backend that lowers the same network shares one Program — and,
    through the plan the Program owns, one compiled plan.
    """
    program = _LOWER_MEMO.get(network)
    if program is None:
        program = Program(network.nodes, network.outputs, name=network.name)
        # The network may have hashed itself already; share the digest.
        if network._fingerprint is not None:
            program._fingerprint = network._fingerprint
        _LOWER_MEMO[network] = program
    return program


def ensure_program(source: ProgramLike) -> Program:
    """*source* as a Program: identity for Programs, :func:`lower` else."""
    if isinstance(source, Program):
        return source
    if isinstance(source, Network):
        return lower(source)
    raise TypeError(f"expected Network or Program, got {type(source).__name__}")


def same_structure(left: Program, right: Program) -> bool:
    """True when two programs have identical node tables and outputs.

    Stronger than fingerprint equality in principle (no hash collisions)
    and the relation the optimizer's idempotence property is stated
    over; provenance and display names are deliberately ignored.
    """
    return (
        left.nodes == right.nodes
        and left.outputs == right.outputs
    )
