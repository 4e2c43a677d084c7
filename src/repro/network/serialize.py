"""JSON (de)serialization of space-time networks.

Trained or synthesized networks are artifacts worth persisting — a
compiled SRM0 bank or a minterm network is the output of a build step.
The format is a plain JSON document:

.. code-block:: json

    {
      "format": "repro.network/1",
      "name": "minterm[3 rows]",
      "nodes": [
        {"kind": "input", "name": "x1"},
        {"kind": "inc", "sources": [0], "amount": 3},
        {"kind": "min", "sources": [0, 1]}
      ],
      "outputs": {"y": 2}
    }

Node ids are implicit (list position), which makes hand-editing and
diffing practical.  Loading checks that source ids, ``amount`` and
output ids are integers and names strings (exactly: ``1.0`` and
``true`` are refused), then re-validates everything through the normal
:class:`~repro.network.blocks.Node` and
:class:`~repro.network.graph.Network` constructors, so a corrupted file
cannot produce a cyclic or ill-formed network.

Documents written by :func:`network_to_dict` also embed the network's
:meth:`~repro.network.graph.Network.fingerprint` — the identity the
serving model registry keys on.  :func:`network_from_dict` recomputes
the fingerprint of the rebuilt network and refuses a document whose
embedded fingerprint disagrees: a round-trip is guaranteed to preserve
the fingerprint bit-for-bit, so a fingerprint travelling with a file is
trustworthy.  Hand-written documents may simply omit the field.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .blocks import Node
from .graph import Network, NetworkError

FORMAT = "repro.network/1"

_INT = frozenset((int,))


def network_to_dict(network: Network) -> dict[str, Any]:
    """The JSON-ready representation of *network*."""
    nodes: list[dict[str, Any]] = []
    for node in network.nodes:
        entry: dict[str, Any] = {"kind": node.kind}
        if node.is_terminal:
            entry["name"] = node.name
        else:
            entry["sources"] = list(node.sources)
        if node.kind == "inc":
            entry["amount"] = node.amount
        if node.tags:
            entry["tags"] = list(node.tags)
        nodes.append(entry)
    return {
        "format": FORMAT,
        "name": network.name,
        "fingerprint": network.fingerprint(),
        "nodes": nodes,
        "outputs": dict(network.outputs),
    }


def network_from_dict(data: dict[str, Any]) -> Network:
    """Rebuild a network, re-validating structure along the way."""
    if data.get("format") != FORMAT:
        raise NetworkError(
            f"unsupported format {data.get('format')!r}; expected {FORMAT!r}"
        )
    raw_nodes = data.get("nodes")
    if not isinstance(raw_nodes, list):
        raise NetworkError("'nodes' must be a list")
    nodes: list[Node] = []
    for i, entry in enumerate(raw_nodes):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise NetworkError(f"node #{i} is malformed")
        try:
            sources = tuple(entry.get("sources", ()))
            amount = entry.get("amount", 1)
            name = entry.get("name")
            # Exact types: a float or bool that compares equal to an int
            # would build a node that evaluates or fingerprints apart
            # from the one the document means.
            if not _INT.issuperset(map(type, sources)):
                raise TypeError(f"source ids must be integers, got {sources!r}")
            if type(amount) is not int:
                raise TypeError(f"amount must be an integer, got {amount!r}")
            if name is not None and type(name) is not str:
                raise TypeError(f"name must be a string, got {name!r}")
            nodes.append(
                Node(
                    i,
                    entry["kind"],
                    sources,
                    amount,
                    name,
                    tuple(entry.get("tags", ())),
                )
            )
        except (TypeError, ValueError) as exc:
            raise NetworkError(f"node #{i} invalid: {exc}") from exc
    outputs = data.get("outputs")
    if not isinstance(outputs, dict):
        raise NetworkError("'outputs' must be a mapping")
    for out_name, node_id in outputs.items():
        if type(node_id) is not int:
            raise NetworkError(
                f"output {out_name!r} must be a node id, got {node_id!r}"
            )
    network = Network(nodes, outputs, name=data.get("name"))
    claimed = data.get("fingerprint")
    if claimed is not None and claimed != network.fingerprint():
        raise NetworkError(
            f"fingerprint mismatch: document claims {str(claimed)[:12]}…, "
            f"rebuilt network is {network.fingerprint()[:12]}… — the "
            "document was modified after it was written"
        )
    return network


def dumps(network: Network, *, indent: int | None = 2) -> str:
    """Serialize to a JSON string."""
    return json.dumps(network_to_dict(network), indent=indent)


def loads(text: str) -> Network:
    """Deserialize from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkError(f"invalid JSON: {exc}") from exc
    return network_from_dict(data)


def save(network: Network, path: str | Path) -> None:
    """Write a network to *path* as JSON."""
    Path(path).write_text(dumps(network), encoding="utf-8")


def load(path: str | Path) -> Network:
    """Read a network from a JSON file."""
    return loads(Path(path).read_text(encoding="utf-8"))
