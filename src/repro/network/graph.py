"""The space-time network: one scheduled program every engine runs.

:class:`Network` is an immutable DAG of :class:`~repro.network.blocks.Node`
objects plus named primary inputs, named configuration parameters, and
named outputs.  Nodes are stored in topological order (every source id
is below its reader's), and the one constructor derives, once, what the
engines and the optimizer read:

* a **level schedule** — nodes grouped by longest structural distance
  from a source-free node, the order every backend executes in (the
  compiled engine fuses whole levels, the event simulator seeds its
  queues from level 0, the interpreted walk visits level by level);
* the zero-source ``min``/``max`` constants (:attr:`Network.const_ids`)
  and the IR-only ``rank`` rows (:attr:`Network.rank_ids`);
* a **provenance map** — node id → the ids, in the network a pass
  rewrote, whose fire times the node reproduces.  A built network
  carries :class:`IdentityProvenance`, a read-only mapping that stores
  only its length; the optimizer (:mod:`repro.ir.passes`) composes a
  real dict, which is what keeps optimized and unoptimized spike traces
  comparable (:func:`repro.obs.trace.project_events`);
* a stable **fingerprint** (the served model id and result-cache key)
  and the network's **compiled plan**, each built on first use and kept
  here, so a plan lives exactly as long as its network.

Networks are built with :class:`repro.network.builder.NetworkBuilder`,
rewritten by :func:`repro.ir.optimize_program` and
:func:`repro.ir.sorters.group_sorters` (which adds ``rank`` rows, the
``k``-th smallest of their sources, in place of each recognized sorting
network), and run by every engine: :func:`repro.network.simulator.evaluate`,
:func:`repro.network.compile_plan.evaluate_batch`,
:class:`repro.network.events.EventSimulator` and the GRL netlist.  A
model document has no ``rank`` kind, so :func:`repro.network.serialize.dumps`
refuses a network that holds rank rows.

This module also owns the **zero-source identity** rule: a ``min`` with
no sources is the lattice top (``∞`` — it never fires), a ``max`` with
no sources is the lattice bottom (it fires at 0).  Backends ask
:func:`classify` / :data:`CONST_IDENTITY` instead of re-deriving it.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING, Optional

from ..core.value import INF, Time
from .blocks import Node

if TYPE_CHECKING:  # repro.core imports the builder, which imports this module
    from ..core.function import SpaceTimeFunction

#: The lattice identity each zero-source constant evaluates to.
CONST_IDENTITY: dict[str, Time] = {"const-inf": INF, "const-zero": 0}


def classify(node: Node) -> str:
    """The schedule class of *node* (zero-source min/max → constants)."""
    if node.kind in ("min", "max") and not node.sources:
        return "const-inf" if node.kind == "min" else "const-zero"
    return node.kind


class NetworkError(ValueError):
    """Raised for structurally invalid networks or bad port references."""


def structural_digest(nodes: Iterable[Node], outputs: Mapping[str, int]) -> str:
    """SHA-256 hex digest of a node table and its output map.

    Each node is hashed as the ``repr`` of ``(kind, sources, amount,
    name or "")``, the amount counting only for ``inc`` and ``rank``
    rows, then the output list in declaration order.  The digest is fed
    node by node, and ``repr`` runs once per run of rows sharing one
    ``sources`` tuple object: a sorter's rank rows share theirs, and a
    wide sorter's lane tuple is long.
    """
    digest = hashlib.sha256()
    update = digest.update
    previous: object = None
    shown = ""
    for node in nodes:
        sources = node.sources
        if sources is not previous:
            previous = sources
            shown = repr(sources)
        kind = node.kind
        amount = node.amount if kind == "inc" or kind == "rank" else 0
        update(f"({kind!r}, {shown}, {amount!r}, {node.name or ''!r})".encode())
    # Declaration order matters: batched plans gather output columns in
    # it, so it must be part of the key.
    update(repr(list(outputs.items())).encode())
    return digest.hexdigest()


class Network:
    """An immutable, topologically scheduled feedforward s-t network."""

    __slots__ = (
        "nodes",
        "outputs",
        "name",
        "input_ids",
        "param_ids",
        "levels",
        "schedule",
        "const_ids",
        "rank_ids",
        "provenance",
        "_fingerprint",
        "_consumers",
        "_plan",
        "__weakref__",
    )

    def __init__(
        self,
        nodes: Iterable[Node],
        outputs: Mapping[str, int],
        *,
        name: Optional[str] = None,
        provenance: Optional[Mapping[int, tuple[int, ...]]] = None,
    ):
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.name = name or "network"
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise NetworkError(
                    f"node ids must be dense and ordered; node #{i} has id "
                    f"{node.id}"
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
            n.id for n in self.nodes if not n.sources and n.kind in ("min", "max")
        )
        #: IR-only ``rank`` rows (:mod:`repro.ir.sorters`).
        self.rank_ids: tuple[int, ...] = tuple(
            n.id for n in self.nodes if n.kind == "rank"
        )
        #: node id -> node ids it stands for (fire-time equal).  Identity
        #: unless a pass rewrote the network; an identity is immutable,
        #: so a given one is kept, not copied.
        if provenance is None:
            provenance = IdentityProvenance(len(self.nodes))
        elif not isinstance(provenance, IdentityProvenance):
            provenance = dict(provenance)
        self.provenance: Mapping[int, tuple[int, ...]] = provenance
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

    def __len__(self) -> int:
        return len(self.nodes)

    def __reduce__(self):
        """Pickle as the constructor's arguments, nothing derived.

        The receiving side re-validates the node table and re-derives the
        schedule; the cached fingerprint, consumers and compiled plan
        never travel, so a compiled network pickles to the same bytes as
        an uncompiled one.  Pickle's memo keeps the rank rows of one
        sorter on one shared source tuple.
        """
        return (_net, (self.nodes, self.outputs, self.name, self.provenance))

    def __repr__(self) -> str:
        return (
            f"Network({self.name!r}: {len(self.input_ids)} in, "
            f"{len(self.param_ids)} params, {self.size} blocks, "
            f"{len(self.outputs)} out)"
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

    def depth(self) -> int:
        """Longest compute path from any input to any output.

        ``inc`` counts as its delay amount is *temporal*, not structural;
        structurally every compute node counts 1.
        """
        ids = self.outputs.values() or range(len(self.nodes))
        return max(map(self.levels.__getitem__, ids), default=0)

    def fingerprint(self) -> str:
        """Stable structural hash of the network (cached).

        Covers everything evaluation depends on: node kinds, sources,
        ``inc`` and ``rank`` amounts, terminal names (they are the
        binding keys) and the output map.  Deliberately excludes the
        display ``name``, the provenance and node ``tags`` — like
        :class:`~repro.network.blocks.Node` equality, the fingerprint is
        blind to annotations that carry no semantics.  Serialization
        round-trips preserve it, which is what makes it a safe
        served-model id and result-cache key (:mod:`repro.serve.registry`).
        """
        if self._fingerprint is None:
            self._fingerprint = structural_digest(self.nodes, self.outputs)
        return self._fingerprint

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.nodes:
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts

    # -- conversion ----------------------------------------------------------
    def as_function(
        self,
        output: Optional[str] = None,
        *,
        params: Optional[Mapping[str, Time]] = None,
        name: Optional[str] = None,
    ) -> SpaceTimeFunction:
        """View one output of the network as a :class:`SpaceTimeFunction`.

        Inputs are bound positionally in declaration order.  *params*
        pins configuration lines; they must cover all parameters of the
        network.  By Lemma 1, the result is an s-t function whenever the
        parameter values are invariant-safe (``∞``) or the network is
        interpreted as configured hardware.
        """
        from ..core.function import SpaceTimeFunction
        from .simulator import evaluate  # local imports to avoid a cycle

        if output is None:
            if len(self.outputs) != 1:
                raise NetworkError(
                    "as_function needs output= when the network has "
                    f"{len(self.outputs)} outputs"
                )
            output = next(iter(self.outputs))
        if output not in self.outputs:
            raise NetworkError(f"no output named {output!r}")
        input_order = list(self.input_ids)
        bound_params = dict(params or {})
        missing = set(self.param_ids) - set(bound_params)
        if missing:
            raise NetworkError(f"unbound parameters: {sorted(missing)}")

        def call(*xs: Time) -> Time:
            values = dict(zip(input_order, xs))
            result = evaluate(self, values, params=bound_params)
            return result[output]

        return SpaceTimeFunction(
            call,
            len(input_order),
            name=name or f"{self.name}.{output}",
        )

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


def _net(nodes, outputs, name, provenance) -> Network:
    """Unpickle a :class:`Network` (:meth:`Network.__reduce__`)."""
    return Network(nodes, outputs, name=name, provenance=provenance)


class IdentityProvenance(Mapping):
    """The provenance of an unrewritten network: ``{i: (i,)}`` for each row.

    Reads (``get``, ``[]``, iteration, ``len``, ``==``) behave as that
    dict does, but only the row count is stored: a 29,000-node sorting
    column would otherwise build a 29,000-entry dict on every load.
    """

    __slots__ = ("_size",)

    def __init__(self, size: int) -> None:
        self._size = size

    def __getitem__(self, node_id: int) -> tuple[int, ...]:
        if isinstance(node_id, int) and 0 <= node_id < self._size:
            return (int(node_id),)
        raise KeyError(node_id)

    def __iter__(self):
        return iter(range(self._size))

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IdentityProvenance):
            return self._size == other._size
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"IdentityProvenance({self._size})"


def same_structure(left: Network, right: Network) -> bool:
    """True when two networks have identical node tables and outputs.

    Stronger than fingerprint equality in principle (no hash collisions)
    and the relation the optimizer's idempotence property is stated
    over; provenance and display names are deliberately ignored.
    """
    return left.nodes == right.nodes and left.outputs == right.outputs
