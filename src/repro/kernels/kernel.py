"""The reusable s-t kernel: an IR subprogram with named ports.

A :class:`Kernel` packages one :class:`~repro.network.graph.Network` as a
composable unit of space-time computation, in the spirit of STICK
(Lagorce & Benosman): the program's ``input`` terminals are the kernel's
**input ports**, its named outputs are the **output ports**, and the
composition operator (:mod:`repro.kernels.compose`) wires ports of
several kernel *instances* together into one flat program that flows
through the ordinary optimizer and every execution backend.

Kernels are immutable.  Port renaming (:meth:`Kernel.renamed`) returns a
fresh kernel — renaming is how a library kernel is adapted to a
composition's wiring plan without touching its structure.

Every kernel also carries the repo's standard *contract* surface:

* :meth:`Kernel.function_table` infers the normalized function table
  (:class:`~repro.core.table.NormalizedTable`) of one output port over a
  bounded window — the paper's §III.F finite specification of the
  bounded s-t function the kernel denotes;
* :meth:`Kernel.contract` infers one table per output port;
* the conformance generator family ``kernels``
  (:mod:`repro.testing.generators`) fuzzes randomly composed kernel
  networks across all four backends.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Optional

from ..core.table import NormalizedTable
from ..core.value import Time
from ..network.blocks import Node
from ..network.builder import NetworkBuilder
from ..network.graph import Network, NetworkError


class KernelError(ValueError):
    """Raised for malformed kernels or bad port references."""


class Kernel:
    """One reusable s-t subprogram with named input/output ports."""

    __slots__ = ("name", "program", "description")

    def __init__(
        self,
        program: Network,
        *,
        name: Optional[str] = None,
        description: str = "",
    ):
        self.program = program
        self.name = name or self.program.name
        self.description = description
        if not self.program.outputs:
            raise KernelError(f"kernel {self.name!r} has no output ports")

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_builder(
        cls,
        builder: NetworkBuilder,
        *,
        name: Optional[str] = None,
        description: str = "",
    ) -> "Kernel":
        """Freeze a :class:`NetworkBuilder` into a kernel."""
        return cls(builder.build(), name=name, description=description)

    # -- ports ------------------------------------------------------------------
    @property
    def inputs(self) -> list[str]:
        """Input port names, in declaration order."""
        return self.program.input_names

    @property
    def outputs(self) -> list[str]:
        """Output port names, in declaration order."""
        return self.program.output_names

    @property
    def params(self) -> list[str]:
        """Configuration (micro-weight) port names."""
        return self.program.param_names

    @property
    def arity(self) -> int:
        return len(self.program.input_ids)

    def __repr__(self) -> str:
        return (
            f"Kernel({self.name!r}: {', '.join(self.inputs)} -> "
            f"{', '.join(self.outputs)}; {self.program.size} blocks)"
        )

    def describe(self) -> str:
        """One human-readable line per port plus the block count."""
        lines = [f"kernel {self.name}: {self.description}".rstrip(": ")]
        lines.append(f"  in:  {', '.join(self.inputs) or '(none)'}")
        if self.params:
            lines.append(f"  cfg: {', '.join(self.params)}")
        lines.append(f"  out: {', '.join(self.outputs)}")
        lines.append(
            f"  {self.program.size} block(s), "
            f"depth {len(self.program.schedule) - 1}"
        )
        return "\n".join(lines)

    # -- adaptation -------------------------------------------------------------
    def renamed(
        self,
        *,
        inputs: Optional[Mapping[str, str]] = None,
        outputs: Optional[Mapping[str, str]] = None,
        name: Optional[str] = None,
    ) -> "Kernel":
        """A fresh kernel with ports renamed (structure untouched).

        Port names are the composition wiring keys, so renaming is the
        adapter between a library kernel's generic ports and a concrete
        plan's labels.  Unknown old names raise; collisions among the
        new names raise (ports must stay unique).
        """
        in_map = dict(inputs or {})
        out_map = dict(outputs or {})
        unknown = set(in_map) - set(self.inputs)
        if unknown:
            raise KernelError(f"unknown input port(s): {sorted(unknown)}")
        unknown = set(out_map) - set(self.outputs)
        if unknown:
            raise KernelError(f"unknown output port(s): {sorted(unknown)}")
        nodes = []
        for node in self.program.nodes:
            if node.kind == "input" and node.name in in_map:
                nodes.append(
                    Node(
                        node.id,
                        "input",
                        name=in_map[node.name],
                        tags=node.tags,
                    )
                )
            else:
                nodes.append(node)
        new_inputs = [in_map.get(p, p) for p in self.inputs]
        if len(set(new_inputs)) != len(new_inputs):
            raise KernelError(f"renamed input ports collide: {new_inputs}")
        new_outputs = {
            out_map.get(port, port): nid
            for port, nid in self.program.outputs.items()
        }
        if len(new_outputs) != len(self.program.outputs):
            raise KernelError("renamed output ports collide")
        program = Network(
            tuple(nodes),
            new_outputs,
            name=name or self.name,
            provenance=self.program.provenance,
        )
        return Kernel(
            program, name=name or self.name, description=self.description
        )

    # -- evaluation and the contract surface ------------------------------------
    def network(self, *, name: Optional[str] = None) -> Network:
        """The kernel's network under its serving name (for serving, serialization)."""
        program = self.program
        return Network(
            program.nodes, program.outputs, name=name or f"kernel-{self.name}"
        )

    def evaluate(
        self,
        volley,
        *,
        params: Optional[Mapping[str, Time]] = None,
    ) -> dict[str, Time]:
        """One volley through the compiled engine, outputs keyed by port."""
        from ..network.compile_plan import decode_matrix, evaluate_batch

        volley = tuple(volley)
        if len(volley) != self.arity:
            raise KernelError(
                f"kernel {self.name!r} takes {self.arity} input(s), "
                f"got {len(volley)}"
            )
        matrix = evaluate_batch(self.program, [volley], params=params)
        row = decode_matrix(matrix)[0]
        return dict(zip(self.outputs, row))

    def function_table(
        self,
        output: Optional[str] = None,
        *,
        window: int,
        params: Optional[Mapping[str, Time]] = None,
    ) -> NormalizedTable:
        """Infer the normalized function table of one output port.

        The finite §III.F specification of the bounded s-t function this
        port denotes — exact whenever *window* is at least the kernel's
        history bound.  Inference is batched (one compiled call over the
        whole normalized window domain).
        """
        if output is None:
            if len(self.outputs) != 1:
                raise KernelError(
                    f"kernel {self.name!r} has {len(self.outputs)} output "
                    "ports; pass output="
                )
            output = self.outputs[0]
        try:
            return NormalizedTable.from_network(
                self.program, window=window, output=output, params=params
            )
        except NetworkError as error:
            raise KernelError(str(error)) from error

    def contract(
        self,
        *,
        window: int,
        params: Optional[Mapping[str, Time]] = None,
    ) -> dict[str, NormalizedTable]:
        """One inferred function table per output port."""
        return {
            port: self.function_table(port, window=window, params=params)
            for port in self.outputs
        }
