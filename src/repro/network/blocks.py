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


@dataclass(frozen=True, slots=True)
class Node:
    """One block in a space-time network.

    ``sources`` are ids of upstream nodes; by construction every source id
    is smaller than the node's own id, so node order is a topological
    order.  ``amount`` is only meaningful for ``inc`` nodes; ``name`` only
    for ``input``/``param`` nodes.  Slotted, because a sorting-network
    neuron body holds tens of thousands of nodes.
    """

    id: int
    kind: str
    sources: tuple[int, ...] = ()
    amount: int = 1
    name: Optional[str] = None
    tags: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.kind in ("input", "param"):
            if self.sources:
                raise ValueError(f"{self.kind} node cannot have sources")
            if not self.name:
                raise ValueError(f"{self.kind} node needs a name")
        else:
            if any(s >= self.id for s in self.sources):
                raise ValueError(
                    f"node {self.id} has a source {max(self.sources)} that is "
                    "not upstream (network must be feedforward)"
                )
            if any(s < 0 for s in self.sources):
                raise ValueError("negative source id")
        if self.kind == "inc":
            if len(self.sources) != 1:
                raise ValueError("inc takes exactly one source")
            if self.amount < 0:
                raise ValueError("inc amount must be non-negative")
        elif self.kind == "lt":
            if len(self.sources) != 2:
                raise ValueError("lt takes exactly two sources (a, b)")
        # min/max may have zero sources: they are then the lattice
        # identity constants — an empty min is ∞ (no first arrival ever
        # happens), an empty max is 0 (all of its zero arrivals have
        # happened at time 0).  Every evaluator implements exactly this;
        # only the GRL hardware compiler rejects them (a CMOS gate needs
        # physical input wires).

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
