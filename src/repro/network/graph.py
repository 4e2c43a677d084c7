"""The space-time network container.

:class:`Network` is an immutable DAG of :class:`~repro.network.blocks.Node`
objects plus named primary inputs, named configuration parameters, and
named outputs.  Nodes are stored in topological order (the builder
guarantees sources precede consumers), which makes single-pass functional
evaluation and structural analysis straightforward.

Networks are built with :class:`repro.network.builder.NetworkBuilder` and
evaluated with :func:`repro.network.simulator.evaluate` (functional) or
:class:`repro.network.events.EventSimulator` (operational/event-driven).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING, Optional

from .blocks import Node

if TYPE_CHECKING:  # repro.core imports the builder, which imports this module
    from ..core.function import SpaceTimeFunction
    from ..core.value import Time


class NetworkError(ValueError):
    """Raised for structurally invalid networks or bad port references."""


def structural_digest(nodes: Iterable[Node], outputs: Mapping[str, int]) -> str:
    """SHA-256 hex digest of a node table and its output map.

    The fingerprint of both :class:`Network` and
    :class:`~repro.ir.program.Program`.  Each node is hashed as the
    ``repr`` of ``(kind, sources, amount, name or "")``, the amount
    counting only for ``inc`` and ``rank`` rows (a network never holds
    a ``rank`` row), then the output list in declaration order.  The
    digest is fed node by node, and ``repr`` runs once per run of rows
    sharing one ``sources`` tuple object: a sorter's rank rows share
    theirs, and a wide sorter's lane tuple is long.
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
    """An immutable feedforward space-time computing network."""

    def __init__(
        self,
        nodes: Iterable[Node],
        outputs: Mapping[str, int],
        *,
        name: Optional[str] = None,
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
        self._consumers: Optional[list[list[int]]] = None
        self._fingerprint: Optional[str] = None

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
        level = [0] * len(self.nodes)
        for node in self.nodes:
            if node.sources:
                level[node.id] = 1 + max(level[s] for s in node.sources)
        if not self.outputs:
            return max(level, default=0)
        return max(level[i] for i in self.outputs.values())

    def fingerprint(self) -> str:
        """Stable structural hash of the network (cached).

        Covers everything evaluation depends on: node kinds, sources,
        ``inc`` amounts, terminal names (they are the binding keys) and
        the output map.  Deliberately excludes the display ``name`` and
        node ``tags`` — like :class:`~repro.network.blocks.Node`
        equality, the fingerprint is blind to annotations that carry no
        semantics.  Serialization round-trips preserve it, which is what
        makes it a safe served-model id and result-cache key
        (:mod:`repro.serve.registry`).
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
        """A readable net-list dump, one node per line."""
        lines = [f"network {self.name}"]
        for node in self.nodes:
            marker = ""
            for out_name, nid in self.outputs.items():
                if nid == node.id:
                    marker += f"  -> output {out_name!r}"
            lines.append(f"  [{node.id:>4}] {node.describe()}{marker}")
        return "\n".join(lines)
