"""Greedy shrinking of disagreeing (network, volley) pairs.

When the conformance diff finds a disagreement, the raw witness is a
random many-node network and a many-line volley — useless as a bug
report.  This module reduces it while a caller-supplied *predicate*
("the disagreement still reproduces") stays true:

* **volley shrinking** — line by line, try ``∞`` (remove the spike),
  then ``0``, then repeated halving toward 0;
* **cone extraction** — restrict the network to the single disagreeing
  output and its backward cone (terminals are kept, so the volley shape
  is unchanged);
* **node bypassing** — try to short every compute node out of the
  network by rewiring its consumers to one of its sources, and to drop
  surplus sources from variadic min/max nodes.

All passes iterate to a joint fixpoint, so the result is 1-minimal:
no single remaining simplification preserves the disagreement.  The
minimized pair is then rendered by :func:`emit_regression_test` as a
ready-to-paste pytest module pinning the expected cross-backend
agreement.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import Optional

from ..core.value import INF, Infinity, Time
from ..network.blocks import Node
from ..network.graph import Network
from ..network.serialize import dumps
from ..network.validate import strip_dead_nodes
from ..runtime.engines import Volley

#: predicate(network, volley) -> True while the disagreement reproduces.
Predicate = Callable[[Network, Volley], bool]


# ---------------------------------------------------------------------------
# Volley shrinking
# ---------------------------------------------------------------------------

def shrink_volley(
    volley: Volley,
    predicate: Callable[[Volley], bool],
) -> Volley:
    """Greedily simplify one volley while *predicate* holds.

    Tries, per line: ``∞`` (drop the spike entirely), ``0`` (the
    earliest spike), then halving the time toward 0.  Every accepted
    move is *strictly* simpler (``∞`` ≻ ``0`` ≻ halving), so the loop
    terminates; it runs until no single-line simplification is accepted.
    """
    current = tuple(volley)
    changed = True
    while changed:
        changed = False
        for index, value in enumerate(current):
            if isinstance(value, Infinity):
                continue  # a silent line is already minimal
            candidates: list[Time] = [INF]
            if value != 0:
                candidates.append(0)
                half = int(value) // 2
                if half != 0:
                    candidates.append(half)
            for candidate in candidates:
                if candidate == value:
                    continue
                trial = tuple(
                    candidate if i == index else v
                    for i, v in enumerate(current)
                )
                if predicate(trial):
                    current = trial
                    changed = True
                    break
    return current


# ---------------------------------------------------------------------------
# Network shrinking
# ---------------------------------------------------------------------------

def restrict_to_output(network: Network, output: str) -> Network:
    """The backward cone of one output (all terminals kept)."""
    if output not in network.outputs:
        raise ValueError(f"no output named {output!r}")
    cone = Network(
        network.nodes,
        {output: network.outputs[output]},
        name=network.name,
    )
    return strip_dead_nodes(cone)


def _bypass(network: Network, node_id: int, src: int) -> Network:
    """Remove *node_id*, rewiring all its readers to *src*."""
    nodes: list[Node] = []
    for node in network.nodes:
        if node.id == node_id:
            continue
        new_id = node.id if node.id < node_id else node.id - 1
        # Redirect reads of the removed node to src, then close the id
        # gap left by the removal.
        sources = tuple(src if s == node_id else s for s in node.sources)
        sources = tuple(s if s < node_id else s - 1 for s in sources)
        nodes.append(
            Node(
                new_id,
                node.kind,
                sources=sources,
                amount=node.amount,
                name=node.name,
                tags=node.tags,
            )
        )
    outputs = {}
    for name, nid in network.outputs.items():
        nid = src if nid == node_id else nid
        outputs[name] = nid if nid < node_id else nid - 1
    return Network(nodes, outputs, name=network.name)


def _drop_source(network: Network, node_id: int, port: int) -> Network:
    """Remove one source from a variadic min/max node."""
    node = network.nodes[node_id]
    sources = tuple(s for p, s in enumerate(node.sources) if p != port)
    nodes = [
        n
        if n.id != node_id
        else Node(n.id, n.kind, sources=sources, amount=n.amount, tags=n.tags)
        for n in network.nodes
    ]
    return Network(nodes, dict(network.outputs), name=network.name)


def shrink_network(
    network: Network,
    volley: Volley,
    predicate: Predicate,
) -> Network:
    """Greedily remove compute nodes while *predicate* holds.

    Candidate moves, tried highest id first: bypass a node with each of
    its sources in turn; drop one source from a min/max of arity ≥ 3.
    Dead nodes are stripped after every accepted move.  Terminals are
    never removed, so the volley keeps its meaning.
    """
    current = strip_dead_nodes(network)
    changed = True
    while changed:
        changed = False
        for node in sorted(
            (n for n in current.nodes if not n.is_terminal),
            key=lambda n: -n.id,
        ):
            accepted = None
            for src in dict.fromkeys(node.sources):
                trial = strip_dead_nodes(_bypass(current, node.id, src))
                if predicate(trial, volley):
                    accepted = trial
                    break
            if accepted is None and node.kind in ("min", "max") and len(node.sources) >= 3:
                for port in range(len(node.sources)):
                    trial = strip_dead_nodes(_drop_source(current, node.id, port))
                    if predicate(trial, volley):
                        accepted = trial
                        break
            if accepted is not None:
                current = accepted
                changed = True
                break
    return current


# ---------------------------------------------------------------------------
# Whole-case minimization
# ---------------------------------------------------------------------------

def minimize_case(
    network: Network,
    volley: Volley,
    predicate: Predicate,
    *,
    output: Optional[str] = None,
    shrink_structure: bool = True,
) -> tuple[Network, Volley]:
    """Reduce a disagreeing pair to a joint fixpoint.

    *predicate* must hold on the input pair; *output*, when given, is the
    disagreeing output to cone-extract first.  ``shrink_structure=False``
    limits the reduction to the volley — used for faults that are tied to
    specific node ids and would be invalidated by structural edits.
    """
    if not predicate(network, volley):
        raise ValueError("predicate does not hold on the initial witness")
    if shrink_structure and output is not None and len(network.outputs) > 1:
        cone = restrict_to_output(network, output)
        if predicate(cone, volley):
            network = cone
    for _ in range(4):  # volley and structure unlock each other; fixpoint fast
        before = (len(network.nodes), volley)
        volley = shrink_volley(volley, lambda v: predicate(network, v))
        if shrink_structure:
            network = shrink_network(network, volley, predicate)
        if (len(network.nodes), volley) == before:
            break
    return network, volley


# ---------------------------------------------------------------------------
# Regression-test emission
# ---------------------------------------------------------------------------

def _format_time(value: Time) -> str:
    return "INF" if isinstance(value, Infinity) else str(int(value))


def format_volley(volley: Volley) -> str:
    """Render a volley as paste-able Python source."""
    body = ", ".join(_format_time(v) for v in volley)
    if len(volley) == 1:
        body += ","
    return f"({body})"


def _format_params(params: Optional[Mapping[str, Time]]) -> str:
    if not params:
        return "{}"
    body = ", ".join(
        f"{name!r}: {_format_time(value)}" for name, value in params.items()
    )
    return "{" + body + "}"


def emit_regression_test(
    network: Network,
    volley: Volley,
    *,
    params: Optional[Mapping[str, Time]] = None,
    title: str = "conformance_repro",
    provenance: str = "",
) -> str:
    """A ready-to-paste pytest module asserting cross-backend agreement.

    The emitted test fails while the disagreement exists and passes once
    the offending backend is fixed — paste it under ``tests/`` to pin
    the fix.
    """
    header = f"# Reproducer emitted by repro.testing ({provenance})." if provenance else "# Reproducer emitted by repro.testing."
    return f'''{header}
from repro.core.value import INF
from repro.network.serialize import loads
from repro.testing.oracles import run_backends

NETWORK_JSON = r"""
{dumps(network)}
"""

VOLLEY = {format_volley(volley)}
PARAMS = {_format_params(params)}


def test_{title}():
    network = loads(NETWORK_JSON)
    run = run_backends(network, [VOLLEY], params=PARAMS or None)
    outputs = {{name: rows[0] for name, rows in run.results.items()}}
    assert len(set(outputs.values())) == 1, f"backends disagree: {{outputs}}"
'''


def emit_mutant_test(
    original: Network,
    mutant: Network,
    volley: Volley,
    *,
    params: Optional[Mapping[str, Time]] = None,
    title: str = "mutant_killed",
    provenance: str = "",
) -> str:
    """A pytest module asserting the harness keeps killing a mutant.

    Pins that *original* and *mutant* observably differ on *volley* —
    i.e. the fault-injection self-check stays meaningful.
    """
    header = f"# Mutant reproducer emitted by repro.testing ({provenance})." if provenance else "# Mutant reproducer emitted by repro.testing."
    return f'''{header}
from repro.core.value import INF
from repro.network.serialize import loads
from repro.runtime.engines import InterpretedEngine
from repro.testing.oracles import saturate_outputs

ORIGINAL_JSON = r"""
{dumps(original)}
"""

MUTANT_JSON = r"""
{dumps(mutant)}
"""

VOLLEY = {format_volley(volley)}
PARAMS = {_format_params(params)}


def test_{title}():
    engine = InterpretedEngine()
    healthy = saturate_outputs(
        engine.run(loads(ORIGINAL_JSON), [VOLLEY], params=PARAMS or None)[0]
    )
    faulty = saturate_outputs(
        engine.run(loads(MUTANT_JSON), [VOLLEY], params=PARAMS or None)[0]
    )
    assert healthy != faulty, "mutant became equivalent; pick a new witness"
'''
