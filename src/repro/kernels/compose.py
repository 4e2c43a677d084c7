"""Wiring kernels into one program: ``compose`` and :class:`KernelGraph`.

Two composition surfaces over one inliner:

* :func:`compose` — the associative series operator (Lynch & Musco's
  compositional shape): stages are inlined left to right, every input
  port binds to the unique earlier *output* port with the same name (or
  unifies with the like-named exposed input), and every output port is
  exported.  Because matching is by name, inlining preserves node order,
  and unbound terminals are emitted in place, the flattening of
  ``compose(compose(a, b), c)`` and ``compose(a, compose(b, c))`` is the
  *same node table* — associativity holds up to program fingerprint,
  before and after optimization.
* :class:`KernelGraph` — arbitrary explicit wiring between named kernel
  *instances* (fan-out, cross-links, port exposure under chosen names),
  for compositions the series operator cannot express.

Both tag every inlined node with ``k:<instance>`` — the **per-kernel
provenance** that survives optimization: the optimizer composes
the IR provenance map, so :func:`kernel_attribution` can name
the kernel instance(s) an *optimized* node descends from even after
its sweep and dce rewrote the program.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional

from ..core.value import Time
from ..ir.passes import PipelineReport, optimize_program
from ..network.blocks import Node
from ..network.graph import Network
from .kernel import Kernel, KernelError

#: Node-tag prefix carrying kernel-instance provenance.
INSTANCE_TAG = "k:"


class _Inliner:
    """Accumulates one flat node table across kernel inlinings."""

    def __init__(self, name: str):
        self.name = name
        self.nodes: list[Node] = []
        self.outputs: dict[str, int] = {}
        self._terminal_names: set[str] = set()

    def emit_terminal(self, kind: str, name: str) -> int:
        if name in self._terminal_names:
            raise KernelError(
                f"terminal name {name!r} already used in composition "
                f"{self.name!r}"
            )
        self._terminal_names.add(name)
        node = Node(len(self.nodes), kind, name=name)
        self.nodes.append(node)
        return node.id

    def inline(
        self,
        kernel: Kernel,
        *,
        tag: str,
        input_bindings: Mapping[str, int],
        input_name: "callable",
        param_name: "callable",
        shared_terminals: Optional[dict[tuple[str, str], int]] = None,
    ) -> dict[str, int]:
        """Splice *kernel*'s node table in; returns output port → node id.

        ``input_bindings`` maps input ports to already-emitted node ids
        (those terminals are aliased away, not emitted).  Unbound
        terminals are emitted **in place** — at the position the
        kernel's own table put them, which is what keeps series
        composition associative — under the name ``input_name(port)`` /
        ``param_name(port)``; when *shared_terminals* is given, terminals
        resolving to an already-emitted name unify with it instead of
        colliding.  Every emitted node gains the ``k:<tag>`` provenance
        tag on top of tags it already carries (nested compositions
        accumulate their full instance path).
        """
        local: dict[int, int] = {}
        outputs: dict[str, int] = {}
        instance_tag = INSTANCE_TAG + tag
        for node in kernel.program.nodes:
            if node.kind == "input":
                if node.name in input_bindings:
                    local[node.id] = input_bindings[node.name]
                    continue
                name = input_name(node.name)
                key = ("input", name)
                if shared_terminals is not None and key in shared_terminals:
                    local[node.id] = shared_terminals[key]
                    continue
                new = self.emit_terminal("input", name)
                if shared_terminals is not None:
                    shared_terminals[key] = new
                local[node.id] = new
            elif node.kind == "param":
                name = param_name(node.name)
                key = ("param", name)
                if shared_terminals is not None and key in shared_terminals:
                    local[node.id] = shared_terminals[key]
                    continue
                new = self.emit_terminal("param", name)
                if shared_terminals is not None:
                    shared_terminals[key] = new
                local[node.id] = new
            else:
                moved = Node(
                    len(self.nodes),
                    node.kind,
                    sources=tuple(local[s] for s in node.sources),
                    amount=node.amount,
                    tags=node.tags + (instance_tag,),
                )
                self.nodes.append(moved)
                local[node.id] = moved.id
        for port, nid in kernel.program.outputs.items():
            outputs[port] = local[nid]
        return outputs

    def finish(self) -> Network:
        if not self.outputs:
            raise KernelError(
                f"composition {self.name!r} exposes no outputs"
            )
        return Network(tuple(self.nodes), self.outputs, name=self.name)


# ---------------------------------------------------------------------------
# The composition product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Composition:
    """A flat program plus the kernel instances it was composed from."""

    kernel: Kernel
    instances: tuple[str, ...]

    @property
    def program(self) -> Network:
        return self.kernel.program

    def optimized(
        self, *, params: Optional[Mapping[str, Time]] = None
    ) -> tuple[Network, PipelineReport]:
        """The composed program through the optimizer."""
        return optimize_program(self.program, params=params)

    def attribution(
        self, program: Optional[Network] = None
    ) -> dict[int, tuple[str, ...]]:
        """Kernel-instance provenance per node of *program*.

        *program* defaults to the raw composed program; pass the output
        of :meth:`optimized` to attribute nodes the optimizer
        rewrote — the IR provenance map relates them back to composed
        nodes, whose ``k:`` tags name their instances.
        """
        return kernel_attribution(
            program if program is not None else self.program, self.program
        )


def kernel_attribution(
    program: Network, original: Optional[Network] = None
) -> dict[int, tuple[str, ...]]:
    """Map each node of *program* to the kernel instances it descends from.

    For every node, follows the IR provenance map back to *original*'s
    node ids (identity when *program* is unoptimized) and collects their
    ``k:<instance>`` tags.  Terminals and pass-synthesized nodes with no
    tagged roots map to an empty tuple.
    """
    source = original if original is not None else program
    attribution: dict[int, tuple[str, ...]] = {}
    for node in program.nodes:
        roots = program.provenance.get(node.id, (node.id,))
        names: set[str] = set()
        for root in roots:
            for tag in source.nodes[root].tags:
                if tag.startswith(INSTANCE_TAG):
                    names.add(tag[len(INSTANCE_TAG):])
        attribution[node.id] = tuple(sorted(names))
    return attribution


# ---------------------------------------------------------------------------
# compose: the associative series operator
# ---------------------------------------------------------------------------

def compose(*kernels: Kernel, name: Optional[str] = None) -> Kernel:
    """Series-compose kernels by port-name matching (associative).

    Stages inline left to right.  Each stage's input port binds to the
    earlier stage *output* port with the same name; input ports matching
    nothing become input ports of the composition, and like-named
    unmatched inputs (and params) **unify** into one shared terminal.
    Every stage's output ports are all exported — a matched output is an
    internal wire *and* still observable — so duplicate output names
    across stages are an error.

    Under those rules the flattened node table is independent of
    grouping: ``compose(compose(a, b), c)`` and
    ``compose(a, compose(b, c))`` produce fingerprint-identical
    programs, before and after optimization (the property suite
    pins this).
    """
    if len(kernels) < 1:
        raise KernelError("compose needs at least one kernel")
    if len(kernels) == 1:
        return kernels[0]
    label = name or "∘".join(k.name for k in kernels)
    inliner = _Inliner(label)
    shared: dict[tuple[str, str], int] = {}
    available: dict[str, int] = {}
    instances: list[str] = []
    counts: dict[str, int] = {}
    for kernel in kernels:
        counts[kernel.name] = counts.get(kernel.name, 0) + 1
        instance = (
            kernel.name
            if counts[kernel.name] == 1
            else f"{kernel.name}#{counts[kernel.name]}"
        )
        instances.append(instance)
        bindings = {
            port: available[port]
            for port in kernel.inputs
            if port in available
        }
        outputs = inliner.inline(
            kernel,
            tag=instance,
            input_bindings=bindings,
            input_name=lambda port: port,
            param_name=lambda port: port,
            shared_terminals=shared,
        )
        for port, nid in outputs.items():
            if port in inliner.outputs:
                raise KernelError(
                    f"output port {port!r} exported by two stages of "
                    f"{label!r}; rename one (Kernel.renamed)"
                )
            inliner.outputs[port] = nid
            available[port] = nid
    program = inliner.finish()
    return Kernel(program, name=label)


# ---------------------------------------------------------------------------
# KernelGraph: explicit wiring between named instances
# ---------------------------------------------------------------------------

def _split_port(ref: str) -> tuple[str, str]:
    instance, _, port = ref.partition(".")
    if not instance or not port:
        raise KernelError(
            f"port reference {ref!r} must be 'instance.port'"
        )
    return instance, port


class KernelGraph:
    """Explicit port-level wiring of kernel instances into one program.

    Instances are added in topological order (a wire may only flow from
    an earlier instance to a later one — feedforward by construction,
    the same handle discipline as :class:`NetworkBuilder`).  External
    inputs are declared with :meth:`input` and may fan out to several
    ports; outputs are exported with :meth:`output`.  When no output is
    exported explicitly, :meth:`build` exports *every* instance output
    as ``instance.port``.
    """

    def __init__(self, name: str = "kernel-graph"):
        self.name = name
        self._instances: list[tuple[str, Kernel]] = []
        self._order: dict[str, int] = {}
        #: (dst instance, dst port) -> ("wire", src instance, src port)
        #: or ("ext", input name)
        self._bindings: dict[tuple[str, str], tuple] = {}
        self._inputs: list[str] = []
        self._outputs: list[tuple[str, str, str]] = []

    # -- construction ------------------------------------------------------------
    def add(self, instance: str, kernel: Kernel) -> "KernelGraph":
        """Add a kernel instance under a unique dot-free name."""
        if not instance or "." in instance:
            raise KernelError(
                f"instance name {instance!r} must be non-empty and dot-free"
            )
        if instance in self._order:
            raise KernelError(f"duplicate instance name {instance!r}")
        self._order[instance] = len(self._instances)
        self._instances.append((instance, kernel))
        return self

    def _kernel(self, instance: str) -> Kernel:
        if instance not in self._order:
            raise KernelError(f"unknown instance {instance!r}")
        return self._instances[self._order[instance]][1]

    def _check_dst(self, instance: str, port: str) -> None:
        kernel = self._kernel(instance)
        if port not in kernel.inputs:
            raise KernelError(
                f"{instance!r} ({kernel.name}) has no input port {port!r}; "
                f"ports: {kernel.inputs}"
            )
        if (instance, port) in self._bindings:
            raise KernelError(f"input {instance}.{port} is already bound")

    def wire(self, src: str, dst: str) -> "KernelGraph":
        """Connect ``src='a.out'`` to ``dst='b.in'`` (a must precede b)."""
        src_inst, src_port = _split_port(src)
        dst_inst, dst_port = _split_port(dst)
        src_kernel = self._kernel(src_inst)
        if src_port not in src_kernel.outputs:
            raise KernelError(
                f"{src_inst!r} ({src_kernel.name}) has no output port "
                f"{src_port!r}; ports: {src_kernel.outputs}"
            )
        self._check_dst(dst_inst, dst_port)
        if self._order[src_inst] >= self._order[dst_inst]:
            raise KernelError(
                f"wire {src} -> {dst} flows backwards; add instances in "
                "topological order"
            )
        self._bindings[(dst_inst, dst_port)] = ("wire", src_inst, src_port)
        return self

    def input(self, name: str, *dsts: str) -> "KernelGraph":
        """Declare an external input and (optionally) fan it out to ports."""
        if name in self._inputs:
            raise KernelError(f"duplicate external input {name!r}")
        self._inputs.append(name)
        for dst in dsts:
            dst_inst, dst_port = _split_port(dst)
            self._check_dst(dst_inst, dst_port)
            self._bindings[(dst_inst, dst_port)] = ("ext", name)
        return self

    def output(self, name: str, src: str) -> "KernelGraph":
        """Export ``src='a.out'`` as composition output *name*."""
        if any(name == existing for existing, _, _ in self._outputs):
            raise KernelError(f"duplicate output name {name!r}")
        src_inst, src_port = _split_port(src)
        src_kernel = self._kernel(src_inst)
        if src_port not in src_kernel.outputs:
            raise KernelError(
                f"{src_inst!r} ({src_kernel.name}) has no output port "
                f"{src_port!r}; ports: {src_kernel.outputs}"
            )
        self._outputs.append((name, src_inst, src_port))
        return self

    # -- the build ---------------------------------------------------------------
    def build(self) -> Composition:
        """Inline every instance and freeze the composed program."""
        if not self._instances:
            raise KernelError("kernel graph has no instances")
        inliner = _Inliner(self.name)
        external: dict[str, int] = {
            name: -1 for name in self._inputs
        }
        # External inputs are emitted up front, in declaration order —
        # a deterministic interface regardless of which instance reads
        # them first.
        for name in self._inputs:
            external[name] = inliner.emit_terminal("input", name)
        resolved: dict[tuple[str, str], int] = {}
        for instance, kernel in self._instances:
            bindings: dict[str, int] = {}
            for port in kernel.inputs:
                bound = self._bindings.get((instance, port))
                if bound is None:
                    continue
                if bound[0] == "ext":
                    bindings[port] = external[bound[1]]
                else:
                    bindings[port] = resolved[(bound[1], bound[2])]
            outputs = inliner.inline(
                kernel,
                tag=instance,
                input_bindings=bindings,
                input_name=lambda port, inst=instance: f"{inst}.{port}",
                param_name=lambda port, inst=instance: f"{inst}.{port}",
            )
            for port, nid in outputs.items():
                resolved[(instance, port)] = nid
        if self._outputs:
            for name, src_inst, src_port in self._outputs:
                inliner.outputs[name] = resolved[(src_inst, src_port)]
        else:
            for instance, kernel in self._instances:
                for port in kernel.outputs:
                    inliner.outputs[f"{instance}.{port}"] = resolved[
                        (instance, port)
                    ]
        program = inliner.finish()
        return Composition(
            kernel=Kernel(program, name=self.name),
            instances=tuple(name for name, _ in self._instances),
        )
