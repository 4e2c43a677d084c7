"""Node kinds of a space-time computing network.

A network (Fig. 7 of the paper) is a feedforward interconnection of
functional blocks.  This library represents it as a DAG of single-output
nodes:

* ``input`` — a primary input line carrying one spike per computation,
* ``param`` — a configuration line (micro-weight, §IV.B) that is pinned to
  ``0`` or ``∞`` before a computation rather than carrying data,
* ``inc`` — the increment/delay primitive (+c),
* ``min`` — first arrival (∧), variadic,
* ``max`` — last arrival (∨), variadic,
* ``lt``  — strictly-earlier-than (≺), two inputs (a, b).

Multi-output components (e.g. the min/max comparator of a sorting network)
are built from several single-output nodes sharing sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Node kinds in the order the builder accepts them.
KINDS = ("input", "param", "inc", "min", "max", "lt")

#: Kinds that compute (have sources), as opposed to terminals.
COMPUTE_KINDS = ("inc", "min", "max", "lt")


@dataclass(frozen=True, slots=True, init=False)
class Node:
    """One block in a space-time network.

    ``sources`` are ids of upstream nodes; by construction every source id
    is smaller than the node's own id, so node order is a topological
    order.  ``amount`` is only meaningful for ``inc`` nodes; ``name`` only
    for ``input``/``param`` nodes.  Slotted, and validated in one pass
    over its arguments before the slots are set, because a
    sorting-network neuron body holds tens of thousands of nodes.
    """

    id: int
    kind: str
    sources: tuple[int, ...] = ()
    amount: int = 1
    name: Optional[str] = None
    tags: tuple[str, ...] = field(default=(), compare=False)

    def __init__(
        self,
        id: int,
        kind: str,
        sources: tuple[int, ...] = (),
        amount: int = 1,
        name: Optional[str] = None,
        tags: tuple[str, ...] = (),
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown node kind {kind!r}")
        if kind == "input" or kind == "param":
            if sources:
                raise ValueError(f"{kind} node cannot have sources")
            if not name:
                raise ValueError(f"{kind} node needs a name")
        elif sources:
            highest = max(sources)
            if highest >= id:
                raise ValueError(
                    f"node {id} has a source {highest} that is "
                    "not upstream (network must be feedforward)"
                )
            if min(sources) < 0:
                raise ValueError("negative source id")
        if kind == "inc":
            if len(sources) != 1:
                raise ValueError("inc takes exactly one source")
            if amount < 0:
                raise ValueError("inc amount must be non-negative")
        elif kind == "lt":
            if len(sources) != 2:
                raise ValueError("lt takes exactly two sources (a, b)")
        # min/max may have zero sources: they are then the lattice
        # identity constants — an empty min is ∞ (no first arrival ever
        # happens), an empty max is 0 (all of its zero arrivals have
        # happened at time 0).  Every evaluator implements exactly this;
        # only the GRL hardware compiler rejects them (a CMOS gate needs
        # physical input wires).
        _set_id(self, id)
        _set_kind(self, kind)
        _set_sources(self, sources)
        _set_amount(self, amount)
        _set_name(self, name)
        _set_tags(self, tags)

    @property
    def is_terminal(self) -> bool:
        return self.kind in ("input", "param")

    def describe(self) -> str:
        if self.kind == "input":
            return f"input {self.name!r}"
        if self.kind == "param":
            return f"param {self.name!r}"
        if self.kind == "inc":
            return f"inc(+{self.amount}) <- {self.sources[0]}"
        return f"{self.kind}{self.sources}"


# The frozen class blocks ``setattr``; ``__init__`` fills the slots
# through their descriptors, the cheapest way to write a slot.
_set_id = Node.id.__set__
_set_kind = Node.kind.__set__
_set_sources = Node.sources.__set__
_set_amount = Node.amount.__set__
_set_name = Node.name.__set__
_set_tags = Node.tags.__set__
