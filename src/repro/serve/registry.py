"""The served-model registry, keyed by ``Network.fingerprint()``.

A model's identity in the service is its structural fingerprint — the
SHA-256 of its node table and terminal/output maps, preserved
bit-for-bit by JSON serialization (:mod:`repro.network.serialize`
embeds and verifies it).  That one choice buys three properties:

* **shippability** — the frontend parses and verifies each document
  once, builds the optimized program a worker serves, and ships that
  program; a worker *proves* it received it intact by recomputing the
  program's fingerprint.  The frontend keeps each model's program and
  its document, zlib-compressed, not its network, which is dropped
  once the program is built;
* **deduplication** — registering a structural twin (same algebra, any
  display name) resolves to the existing entry, so workers load it once;
* **conformance** — "served response equals direct ``evaluate_batch``"
  is well-defined because both sides name the model by the same key.

Human-friendly **aliases** ("demo") map onto fingerprints; lookups
accept an alias, a full fingerprint, or an unambiguous fingerprint
prefix (≥ 8 hex chars).

Aliases are also the registry's **versioning seam** (the training
plane's hot-swap mechanism): :meth:`ModelRegistry.promote` atomically
repoints an alias at an already-registered fingerprint, so admissions
before the flip resolve the old model and admissions after it resolve
the new one — there is no in-between state.  :meth:`ModelRegistry.
remove` retires a model outright and purges its cached result rows
(:meth:`repro.runtime.ResultCache.evict_fingerprint`), so a retired
fingerprint can never be served from stale cache state.  All registry
operations are thread-safe: the training plane registers snapshots and
promotes while the service admits requests.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import Optional, Union

# Called through this module's name, so tooling that times the serving
# set-up can wrap ``repro.serve.registry.optimize_program``.
from ..ir.passes import optimize_program
from ..ir.program import Program, lower
from ..ir.sorters import group_sorters
from ..network import serialize
from ..network.graph import Network, NetworkError
from ..runtime.result_cache import RESULT_CACHE
from .protocol import E_NO_MODEL, ServeError

#: Shortest fingerprint prefix accepted as a model reference.
MIN_PREFIX = 8


def pack_document(text: str) -> bytes:
    """*text* as the registry keeps it at rest: UTF-8, zlib level 1."""
    # ``surrogatepass``: any str round-trips, exactly as it was given.
    return zlib.compress(text.encode("utf-8", "surrogatepass"), 1)


def unpack_document(packed: bytes) -> str:
    """The exact text :func:`pack_document` was given."""
    return zlib.decompress(packed).decode("utf-8", "surrogatepass")


@dataclass(frozen=True)
class ModelEntry:
    """One registered model: its packed document, served program and node count.

    ``program`` is what the worker pool serves: the network lowered, its
    sorters grouped into rank rows and the result optimized, built once
    here (fire-time equal to the network by the IR's provenance
    contract).  Workers receive it, not the document, and only compile
    and warm it.  ``packed`` is the serialized document, compressed by
    :func:`pack_document` (the 80-input column's 3.8 MB of JSON keeps as
    about 180 kB); :attr:`document` returns the exact text registered,
    which the ``model_doc`` op hands out so a client can rebuild and
    byte-check the model, and from which the direct conformance path
    rebuilds the network.  The network itself is not kept: ``nodes`` is
    its node count, which the ``models`` op reports, and the interface
    maps come from the program, which has the network's.
    """

    model_id: str  # == network.fingerprint()
    name: str
    packed: bytes
    program: Program
    nodes: int

    @property
    def document(self) -> str:
        """The serialized document, exactly as registered."""
        return unpack_document(self.packed)

    @property
    def input_arity(self) -> int:
        return len(self.program.input_ids)

    @property
    def input_names(self) -> list[str]:
        return self.program.input_names

    @property
    def param_names(self) -> list[str]:
        return self.program.param_names

    @property
    def output_names(self) -> list[str]:
        return self.program.output_names

    def describe(self) -> dict:
        """The JSON shape the server's ``models`` op reports."""
        return {
            "id": self.model_id,
            "name": self.name,
            "inputs": self.input_names,
            "params": self.param_names,
            "outputs": self.output_names,
            "nodes": self.nodes,
            # Workers always serve the optimized program.
            "optimized": True,
        }


class ModelRegistry:
    """Fingerprint-keyed model store with alias and prefix lookup."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._by_id: dict[str, ModelEntry] = {}
        self._aliases: dict[str, str] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._by_id

    def ids(self) -> list[str]:
        with self._lock:
            return list(self._by_id)

    def entries(self) -> list[ModelEntry]:
        with self._lock:
            return list(self._by_id.values())

    def aliases(self) -> dict[str, str]:
        """The live ``alias -> fingerprint`` map (a snapshot copy)."""
        with self._lock:
            return dict(self._aliases)

    def register(
        self,
        model: Union[Network, str],
        *,
        name: Optional[str] = None,
    ) -> ModelEntry:
        """Register *model*; returns the (possibly pre-existing) entry.

        *model* is a :class:`Network` or a serialized document.  Either
        way, a registration fails loudly here rather than shipping a
        document workers would reject:

        * a **document** (a ``--model-file``'s text) is parsed once, which
          also verifies any fingerprint it embeds.  The model id is the
          fingerprint of the rebuilt network, and the entry keeps the
          text exactly as given, packed — that one parse is the round
          trip;
        * a **network** is serialized, the document parsed back, and the
          two fingerprints compared bit-for-bit.

        A new model's served program is then built from the network:
        lowered, its sorters grouped (before the optimizer, whose
        rewrites would hide a sorter's shape; it also leaves the sweep a
        fraction of the nodes) and optimized.  All of it happens outside
        the lock: a large column takes a while, and admissions must keep
        resolving meanwhile.  The network is not kept: once its program
        is built it is dropped, and the lowering memoized on it with it;
        the document is kept packed (:func:`pack_document`).
        """
        document = None
        if isinstance(model, str):
            document = model
            network = serialize.loads(document)
        else:
            network = model
        fingerprint = network.fingerprint()
        with self._lock:
            entry = self._by_id.get(fingerprint)
        if entry is None:
            if document is None:
                document = serialize.dumps(network, indent=None)
                rebuilt = serialize.loads(document).fingerprint()
                if rebuilt != fingerprint:
                    raise NetworkError(
                        f"serialization round-trip changed the fingerprint "
                        f"of {network.name!r}: {fingerprint[:12]} -> "
                        f"{rebuilt[:12]}"
                    )
            program, _report = optimize_program(group_sorters(lower(network)))
            entry = ModelEntry(
                model_id=fingerprint,
                name=name or network.name,
                packed=pack_document(document),
                program=program,
                nodes=len(network.nodes),
            )
        with self._lock:
            entry = self._by_id.setdefault(fingerprint, entry)
            if name:
                self._aliases[name] = fingerprint
        return entry

    def resolve(self, key: str) -> ModelEntry:
        """Entry for an alias, fingerprint, or unambiguous prefix."""
        with self._lock:
            if key in self._aliases:
                return self._by_id[self._aliases[key]]
            if key in self._by_id:
                return self._by_id[key]
            if len(key) >= MIN_PREFIX:
                hits = [fp for fp in self._by_id if fp.startswith(key)]
                if len(hits) == 1:
                    return self._by_id[hits[0]]
                if len(hits) > 1:
                    raise ServeError(
                        E_NO_MODEL,
                        f"model prefix {key!r} is ambiguous ({len(hits)})",
                    )
        raise ServeError(E_NO_MODEL, f"no model named {key!r}")

    def promote(self, alias: str, key: str) -> tuple[Optional[str], str]:
        """Atomically repoint *alias* at the model *key* resolves to.

        Returns ``(previous fingerprint or None, new fingerprint)``.
        The flip happens under the registry lock, so every admission
        resolves either entirely-old or entirely-new — in-flight
        requests admitted before the flip keep the entry they already
        resolved and complete on it.  The target must already be
        registered (and therefore already shipped to and warmed by the
        worker pool); promoting is pure metadata.
        """
        entry = self.resolve(key)
        with self._lock:
            previous = self._aliases.get(alias)
            self._aliases[alias] = entry.model_id
        return previous, entry.model_id

    def remove(self, key: str) -> ModelEntry:
        """Retire a model: drop its entry, aliases, and cached state.

        Every result-cache row keyed on the retired fingerprint is
        purged — a retired model must never be served, not even from
        cache.  Returns the removed entry.
        """
        entry = self.resolve(key)
        with self._lock:
            self._by_id.pop(entry.model_id, None)
            for alias in [
                a for a, fp in self._aliases.items() if fp == entry.model_id
            ]:
                del self._aliases[alias]
        RESULT_CACHE.evict_fingerprint(entry.model_id)
        return entry

    def programs(self) -> dict[str, Program]:
        """``model_id -> served program`` — the worker-pool payload."""
        with self._lock:
            return {fp: entry.program for fp, entry in self._by_id.items()}
