"""GRL circuit netlists.

A :class:`Circuit` is a feedforward netlist of digital gates — the
off-the-shelf-CMOS target of the paper's §V.  Gate kinds:

* ``input`` — a primary wire driven by the testbench,
* ``and``/``or`` — n-ary combinational gates (zero delay),
* ``not`` — inverter (only legal feeding an ``lt`` latch's b-side or in
  testbench scaffolding; the builder's ``lt`` emits it internally),
* ``dff`` — a clocked flip-flop initialized high (one cycle delay),
* ``lt`` — the latched strictly-before gate of Fig. 16 (a, b inputs,
  internal latch state, implicit reset before every run).

The same id-ordering discipline as space-time networks applies: sources
precede consumers, so gate order is a topological order and the
cycle-accurate simulator settles each gate at most once per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

GATE_KINDS = ("input", "and", "or", "not", "dff", "lt")


class CircuitError(ValueError):
    """Raised for malformed netlists or bad references."""


@dataclass(frozen=True)
class Gate:
    """One gate in a netlist."""

    id: int
    kind: str
    sources: tuple[int, ...] = ()
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        if self.kind == "input":
            if self.sources:
                raise CircuitError("input gates have no sources")
            if not self.name:
                raise CircuitError("input gates need a name")
        else:
            if not self.sources:
                raise CircuitError(f"{self.kind} gate needs sources")
            if any(s >= self.id for s in self.sources):
                raise CircuitError("netlist must be feedforward")
        if self.kind in ("not", "dff") and len(self.sources) != 1:
            raise CircuitError(f"{self.kind} takes exactly one source")
        if self.kind == "lt" and len(self.sources) != 2:
            raise CircuitError("lt takes exactly (a, b)")


class Circuit:
    """An immutable GRL netlist with named inputs and outputs."""

    def __init__(self, gates, outputs, *, name: Optional[str] = None):
        self.gates: tuple[Gate, ...] = tuple(gates)
        self.name = name or "circuit"
        for i, gate in enumerate(self.gates):
            if gate.id != i:
                raise CircuitError("gate ids must be dense and ordered")
        self.outputs: dict[str, int] = dict(outputs)
        for out_name, gid in self.outputs.items():
            if not 0 <= gid < len(self.gates):
                raise CircuitError(f"output {out_name!r} references gate {gid}")
        self.input_ids: dict[str, int] = {
            g.name: g.id for g in self.gates if g.kind == "input"
        }

    @property
    def input_names(self) -> list[str]:
        return list(self.input_ids)

    @property
    def output_names(self) -> list[str]:
        return list(self.outputs)

    def __len__(self) -> int:
        return len(self.gates)

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for gate in self.gates:
            counts[gate.kind] = counts.get(gate.kind, 0) + 1
        return counts

    @property
    def flipflop_count(self) -> int:
        """Number of DFFs — the paper's noted energy cost of GRL delays."""
        return self.counts_by_kind().get("dff", 0)

    def __repr__(self) -> str:
        kinds = ", ".join(f"{k}:{v}" for k, v in sorted(self.counts_by_kind().items()))
        return f"Circuit({self.name!r}: {kinds})"


class CircuitBuilder:
    """Fluent netlist construction mirroring NetworkBuilder."""

    def __init__(self, name: Optional[str] = None):
        self.name = name or "circuit"
        self._gates: list[Gate] = []
        self._outputs: dict[str, int] = {}
        self._input_names: set[str] = set()

    def _add(self, kind: str, sources: tuple[int, ...] = (), name: Optional[str] = None) -> int:
        gate = Gate(len(self._gates), kind, sources=sources, name=name)
        self._gates.append(gate)
        return gate.id

    def _check(self, gid: int) -> int:
        if not 0 <= gid < len(self._gates):
            raise CircuitError(f"invalid gate reference {gid}")
        return gid

    def input(self, name: str) -> int:
        if name in self._input_names:
            raise CircuitError(f"duplicate input {name!r}")
        self._input_names.add(name)
        return self._add("input", name=name)

    def and_(self, *sources: int) -> int:
        srcs = tuple(self._check(s) for s in sources)
        if len(srcs) == 1:
            return srcs[0]
        return self._add("and", srcs)

    def or_(self, *sources: int) -> int:
        srcs = tuple(self._check(s) for s in sources)
        if len(srcs) == 1:
            return srcs[0]
        return self._add("or", srcs)

    def not_(self, source: int) -> int:
        return self._add("not", (self._check(source),))

    def dff(self, source: int) -> int:
        return self._add("dff", (self._check(source),))

    def delay(self, source: int, cycles: int) -> int:
        """A shift register: *cycles* DFFs in series."""
        if cycles < 0:
            raise CircuitError("delay must be non-negative")
        gid = self._check(source)
        for _ in range(cycles):
            gid = self.dff(gid)
        return gid

    def lt(self, a: int, b: int) -> int:
        return self._add("lt", (self._check(a), self._check(b)))

    def output(self, name: str, source: int) -> None:
        if name in self._outputs:
            raise CircuitError(f"duplicate output {name!r}")
        self._outputs[name] = self._check(source)

    def build(self) -> Circuit:
        if not self._outputs:
            raise CircuitError("circuit has no outputs")
        return Circuit(self._gates, self._outputs, name=self.name)
