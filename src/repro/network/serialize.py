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

:func:`loads` builds each node as its JSON object closes, so a large
document never exists as a tree of per-node dicts: decoding the
80-input SRM0 column (29,351 nodes, 3.8 MB) peaks near the size of the
network it returns instead of twice it.  A document that does not
decode to one node per list entry is decoded again as plain JSON and
checked by :func:`network_from_dict`, so every document loads, or is
refused with the same message, as through that function.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

from .blocks import KINDS, Node
from .graph import Network, NetworkError

FORMAT = "repro.network/1"

_INT = frozenset((int,))


def network_to_dict(network: Network) -> dict[str, Any]:
    """The JSON-ready representation of *network*.

    The format has no ``rank`` kind, so a network holding the IR-only
    rank rows of :func:`repro.ir.sorters.group_sorters` is refused.
    """
    if network.rank_ids:
        raise NetworkError(
            f"a model document cannot hold rank row {network.rank_ids[0]}: "
            "rank rows are IR-only"
        )
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
    _check_format(data)
    raw_nodes = data.get("nodes")
    if not isinstance(raw_nodes, list):
        raise NetworkError("'nodes' must be a list")
    nodes: list[Node] = []
    for i, entry in enumerate(raw_nodes):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise NetworkError(f"node #{i} is malformed")
        try:
            nodes.append(
                _node(
                    i,
                    entry["kind"],
                    tuple(entry.get("sources", ())),
                    entry.get("amount", 1),
                    entry.get("name"),
                    tuple(entry.get("tags", ())),
                )
            )
        except (TypeError, ValueError) as exc:
            raise NetworkError(f"node #{i} invalid: {exc}") from exc
    return _assemble(data, nodes)


def _check_format(data: Any) -> None:
    if not isinstance(data, dict):
        raise NetworkError(
            f"a network document is a JSON object, got {type(data).__name__}"
        )
    if data.get("format") != FORMAT:
        raise NetworkError(
            f"unsupported format {data.get('format')!r}; expected {FORMAT!r}"
        )


def _node(
    i: int,
    kind: Any,
    sources: tuple,
    amount: Any,
    name: Any,
    tags: tuple,
) -> Node:
    """Node *i* from its document fields: the one per-node validator."""
    # Exact types: a float or bool that compares equal to an int would
    # build a node that evaluates or fingerprints apart from the one
    # the document means.
    if not _INT.issuperset(map(type, sources)):
        raise TypeError(f"source ids must be integers, got {sources!r}")
    if type(amount) is not int:
        raise TypeError(f"amount must be an integer, got {amount!r}")
    if name is not None and type(name) is not str:
        raise TypeError(f"name must be a string, got {name!r}")
    return Node(i, kind, sources, amount, name, tags)


def _assemble(data: dict[str, Any], nodes: list[Node]) -> Network:
    """The network of validated *nodes* and the document's other fields."""
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


#: Canonical kind strings: a decoded node keeps these, not the parser's.
_KINDS = {kind: kind for kind in KINDS}
_FIELDS = frozenset(("kind", "sources", "amount", "name", "tags"))


class _Unstreamed(Exception):
    """A node-shaped object failed validation: decode the plain way."""


def _node_decoder() -> tuple[Callable[[dict], Any], Iterator[int]]:
    """A ``json`` ``object_hook`` that builds each node as its object closes.

    An object is a node when every key is a node field and ``kind`` is
    one of :data:`~repro.network.blocks.KINDS`.  It becomes
    ``Node(count, ...)``, *count* being the number of nodes built so
    far — its list position in a well-formed document — with the
    canonical kind string and one shared tuple per distinct ``tags``.
    Any other object stays a dict.  A node-shaped object that fails
    validation raises :class:`_Unstreamed`.  Returns the hook and the
    id counter, whose next value is the number of nodes built.
    """
    ids = itertools.count()
    shared_tags: dict[tuple, tuple] = {}

    def hook(entry: dict) -> Any:
        kind = entry.get("kind")
        if type(kind) is not str or kind not in _KINDS or not _FIELDS.issuperset(entry):
            return entry
        try:
            tags = tuple(entry.get("tags", ()))
            return _node(
                next(ids),
                _KINDS[kind],
                tuple(entry.get("sources", ())),
                entry.get("amount", 1),
                entry.get("name"),
                shared_tags.setdefault(tags, tags),
            )
        except (TypeError, ValueError):
            raise _Unstreamed from None

    return hook, ids


def dumps(network: Network, *, indent: int | None = 2) -> str:
    """Serialize to a JSON string."""
    return json.dumps(network_to_dict(network), indent=indent)


def loads(text: str) -> Network:
    """Deserialize from a JSON string.

    Nodes are built as their JSON objects close (:func:`_node_decoder`),
    so no per-node dict outlives its node.  When the result is not
    exactly one node per ``nodes`` entry, each at its own position —
    a node failed validation, a list entry is not node-shaped, or a
    node-shaped object sits elsewhere in the document — the text is
    decoded again as plain JSON and validated by
    :func:`network_from_dict`, so such a document loads, or is refused
    with the message, exactly as the plain path gives.
    """
    hook, ids = _node_decoder()
    try:
        data = _decode(text, object_hook=hook)
    except _Unstreamed:
        data = None
    nodes = data.get("nodes") if type(data) is dict else None
    if (
        type(nodes) is not list
        or len(nodes) != next(ids)
        or not all(type(n) is Node and n.id == i for i, n in enumerate(nodes))
    ):
        return network_from_dict(_decode(text))
    _check_format(data)
    return _assemble(data, nodes)


def _decode(text: str, **hooks: Any) -> Any:
    try:
        return json.loads(text, **hooks)
    except (ValueError, RecursionError) as exc:
        raise NetworkError(f"invalid JSON: {exc}") from exc


def save(network: Network, path: str | Path) -> None:
    """Write a network to *path* as JSON."""
    Path(path).write_text(dumps(network), encoding="utf-8")


def load(path: str | Path) -> Network:
    """Read a network from a JSON file."""
    return loads(Path(path).read_text(encoding="utf-8"))
