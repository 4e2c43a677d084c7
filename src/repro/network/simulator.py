"""Functional (denotational) evaluation of space-time networks.

Evaluates every node once, in topological order, using the pure algebra
semantics from :mod:`repro.core.algebra`.  This is the reference
implementation of network meaning; the operational event-driven simulator
(:mod:`repro.network.events`) and the gate-level GRL simulator
(:mod:`repro.racelogic.digital`) are checked against it.

Two execution paths share these semantics:

* :func:`evaluate_all_interpreted` — the original per-node Python loop,
  kept as the executable specification (it is what the batched engine is
  property-checked against) and as the fallback for inputs beyond the
  int64 range;
* the compiled int64 engine (:mod:`repro.network.compile_plan`), which
  :func:`evaluate_all` / :func:`evaluate` wrap with a batch of one.  The
  compiled plan is memoized per network, so repeated scalar calls on the
  same network stay cheap, and batch callers should use
  :func:`~repro.network.compile_plan.evaluate_batch` directly.

Empty ``min``/``max`` nodes evaluate to the lattice identity elements:
a ``min`` with no sources is ``∞`` (no first arrival ever happens) and a
``max`` with no sources is ``0`` (every one of its zero arrivals has
happened at time 0).  Both paths implement — and the regression tests
assert — exactly this.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Optional

from ..core.value import INF, Infinity, Time, check_time
from ..ir.program import CONST_IDENTITY, ProgramLike, classify, ensure_program
from .graph import Network, NetworkError


def evaluate_all_interpreted(
    network: ProgramLike,
    inputs: Mapping[str, Time],
    *,
    params: Optional[Mapping[str, Time]] = None,
    sink=None,
) -> list[Time]:
    """The pure-Python reference loop: every node's spike time, by id.

    Semantically identical to :func:`evaluate_all`; exists as the
    executable specification the compiled engine is checked against, and
    handles arbitrary-precision times the int64 engine cannot.

    Accepts a :class:`~repro.network.graph.Network` or an already-lowered
    :class:`~repro.ir.program.Program` and walks the IR level schedule;
    the zero-source min/max constants evaluate to the lattice identities
    the IR declares (:data:`repro.ir.CONST_IDENTITY`) — this backend no
    longer derives that rule itself.

    *sink* is an optional :class:`repro.obs.trace.TraceSink`; when
    enabled, the canonical spike trace of this volley is emitted after
    the walk (one event per node that fires).
    """
    program = ensure_program(network)
    program.require_comparators("the interpreted evaluator")
    params = params or {}
    missing_in = set(program.input_ids) - set(inputs)
    if missing_in:
        raise NetworkError(f"unbound inputs: {sorted(missing_in)}")
    missing_p = set(program.param_ids) - set(params)
    if missing_p:
        raise NetworkError(f"unbound params: {sorted(missing_p)}")

    nodes = program.nodes
    values: list[Time] = [INF] * len(nodes)
    for level_ids in program.schedule:
        for node_id in level_ids:
            node = nodes[node_id]
            kind = classify(node)
            if kind == "input":
                values[node.id] = check_time(inputs[node.name], name=node.name)
            elif kind == "param":
                value = check_time(params[node.name], name=node.name)
                if value != 0 and not isinstance(value, Infinity):
                    raise NetworkError(
                        f"param {node.name!r} must be 0 or INF, got {value}"
                    )
                values[node.id] = value
            elif kind == "inc":
                x = values[node.sources[0]]
                values[node.id] = (
                    INF if isinstance(x, Infinity) else x + node.amount
                )
            elif kind == "min":
                best: Time = INF
                for s in node.sources:
                    v = values[s]
                    if v < best:
                        best = v
                values[node.id] = best
            elif kind == "max":
                worst: Time = 0
                for s in node.sources:
                    v = values[s]
                    if v > worst:
                        worst = v
                values[node.id] = worst
            elif kind == "lt":
                a = values[node.sources[0]]
                b = values[node.sources[1]]
                values[node.id] = a if a < b else INF
            else:  # const-inf / const-zero: the IR-declared identities
                values[node.id] = CONST_IDENTITY[kind]
    if sink is not None and sink.enabled:
        from ..obs.trace import emit_events

        emit_events(sink, program, values)
    return values


def evaluate_all(
    network: ProgramLike,
    inputs: Mapping[str, Time],
    *,
    params: Optional[Mapping[str, Time]] = None,
) -> list[Time]:
    """Return the spike time of every node, indexed by node id.

    *inputs* must bind every primary input; *params* every parameter.
    Unbound inputs are an error — a missing spike must be stated
    explicitly as ``INF``, never implied.

    A thin batch-of-one wrapper over the compiled engine
    (:mod:`repro.network.compile_plan`); validation order and error
    messages match the interpreted reference exactly.
    """
    # Deferred import: keeps numpy off cold paths and avoids a cycle.
    from .compile_plan import (
        INF_I64,
        MAX_FINITE,
        _encode_params,
        compile_plan,
    )

    params = params or {}
    missing_in = set(network.input_ids) - set(inputs)
    if missing_in:
        raise NetworkError(f"unbound inputs: {sorted(missing_in)}")
    missing_p = set(network.param_ids) - set(params)
    if missing_p:
        raise NetworkError(f"unbound params: {sorted(missing_p)}")

    # Validate terminals in node order, exactly as the interpreted loop
    # does, so error types/messages/ordering are preserved.
    row = [0] * len(network.input_ids)
    slot = 0
    for node in network.nodes:
        if node.kind == "input":
            value = check_time(inputs[node.name], name=node.name)
            if isinstance(value, Infinity):
                row[slot] = INF_I64
            elif value > MAX_FINITE:
                # Beyond int64: the interpreted loop is exact, use it.
                return evaluate_all_interpreted(network, inputs, params=params)
            else:
                row[slot] = value
            slot += 1
        elif node.kind == "param":
            value = check_time(params[node.name], name=node.name)
            if value != 0 and not isinstance(value, Infinity):
                raise NetworkError(
                    f"param {node.name!r} must be 0 or INF, got {value}"
                )

    import numpy as np

    plan = compile_plan(network)
    matrix = np.array([row], dtype=np.int64).reshape(1, len(row))
    values = plan.run(matrix, _encode_params(network, params))[0]
    return [INF if v == INF_I64 else int(v) for v in values.tolist()]


def evaluate(
    network: ProgramLike,
    inputs: Mapping[str, Time],
    *,
    params: Optional[Mapping[str, Time]] = None,
) -> dict[str, Time]:
    """Evaluate the network, returning ``{output name: spike time}``."""
    values = evaluate_all(network, inputs, params=params)
    return {name: values[nid] for name, nid in network.outputs.items()}


def evaluate_vector(
    network: ProgramLike,
    vector: tuple[Time, ...],
    *,
    params: Optional[Mapping[str, Time]] = None,
) -> dict[str, Time]:
    """Evaluate with inputs bound positionally in declaration order."""
    names = network.input_names
    if len(vector) != len(names):
        raise NetworkError(
            f"expected {len(names)} inputs, got {len(vector)}"
        )
    return evaluate(network, dict(zip(names, vector)), params=params)
