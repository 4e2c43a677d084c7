"""The served-model registry, keyed by ``Network.fingerprint()``.

A model's identity in the service is its structural fingerprint — the
SHA-256 of its node table and terminal/output maps, preserved
bit-for-bit by JSON serialization (:mod:`repro.network.serialize`
embeds and verifies it).  That one choice buys three properties:

* **shippability** — each document is parsed and verified once, by
  :func:`build_program`, which builds the optimized program a worker
  serves; a worker *proves* it received that program intact by
  recomputing its fingerprint.  With a process pool the build runs in
  a short-lived builder process, so the frontend never holds a model's
  parse heap; it keeps each model's program and its document,
  zlib-compressed, never its network;
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

import importlib
import sys
import threading
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

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


#: The IR passes of the build path, imported on first use
#: (:func:`__getattr__`): a frontend whose pool builds in builder
#: processes never loads them.
_BUILD_PASSES = {
    "group_sorters": "repro.ir.sorters",
    "optimize_program": "repro.ir.passes",
}


def __getattr__(name: str):
    if name not in _BUILD_PASSES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_BUILD_PASSES[name]), name)
    globals()[name] = value
    return value


class Built(NamedTuple):
    """What :func:`build_program` makes of one model document."""

    model_id: str  # the parsed network's fingerprint
    name: str
    nodes: int
    program: Network
    #: The program pickled, when it crossed a pipe to get here (a
    #: process pool ships these same bytes to its workers).
    payload: Optional[bytes] = None


def build_program(packed: bytes) -> Built:
    """Parse a packed document and build the program a worker serves.

    The network is parsed (which verifies any fingerprint the document
    embeds and schedules the network), its sorters grouped (before the optimizer, whose
    rewrites would hide a sorter's shape; it also leaves the sweep a
    fraction of the nodes) and optimized; only its fingerprint, name
    and node count outlive the call.  A process pool runs this in a
    builder process; an inline pool, and a registry used without a
    pool, run it in-process.
    """
    network = serialize.loads(unpack_document(packed))
    # Called through this module's name, so tooling that times the
    # serving set-up can wrap ``repro.serve.registry.optimize_program``.
    this = sys.modules[__name__]
    program, _report = this.optimize_program(this.group_sorters(network))
    return Built(network.fingerprint(), network.name, len(network.nodes), program)


@dataclass(frozen=True)
class ModelEntry:
    """One registered model: its packed document, served program and node count.

    ``program`` is what the worker pool serves: the network with its
    sorters grouped into rank rows and the result optimized, built once
    by :func:`build_program` (fire-time equal to the network by the
    IR's provenance contract); ``payload`` is that program pickled, when
    a builder process sent it.  Workers receive it, not the document,
    and only compile and warm it.  ``packed`` is the serialized document, compressed by
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
    program: Network
    nodes: int
    payload: Optional[bytes] = None

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
        build: Callable[[bytes], Built] = build_program,
    ) -> ModelEntry:
        """Register *model*; returns the (possibly pre-existing) entry.

        *model* is a :class:`Network` or a serialized document; either
        way the entry keeps a document, packed (:func:`pack_document`):
        a document (a ``--model-file``'s text) exactly as given, a
        network serialized.  *build* (:func:`build_program`, or a
        process pool's :meth:`~repro.serve.pool.ProcessWorkerPool.build`,
        which runs it in a builder process) parses that document once
        and builds the served program, so a registration fails loudly
        here rather than shipping a document workers would reject:

        * a **document**'s parse verifies any fingerprint it embeds, and
          the model id is the fingerprint of the network it rebuilds
          (so a twin of a registered model is built, then dropped);
        * a **network** already registered is not built again;
          otherwise the fingerprint of the network rebuilt from its
          document must equal its own, bit for bit.

        The build happens outside the lock: a large column takes a
        while, and admissions must keep resolving meanwhile.
        """
        fingerprint = None
        entry = None
        if isinstance(model, str):
            document = model
        else:
            fingerprint = model.fingerprint()
            with self._lock:
                entry = self._by_id.get(fingerprint)
            document = None if entry else serialize.dumps(model, indent=None)
        if entry is None:
            packed = pack_document(document)
            built = build(packed)
            if fingerprint is not None and built.model_id != fingerprint:
                raise NetworkError(
                    f"serialization round-trip changed the fingerprint "
                    f"of {model.name!r}: {fingerprint[:12]} -> "
                    f"{built.model_id[:12]}"
                )
            entry = ModelEntry(
                model_id=built.model_id,
                name=name or built.name,
                packed=packed,
                program=built.program,
                nodes=built.nodes,
                payload=built.payload,
            )
        with self._lock:
            entry = self._by_id.setdefault(entry.model_id, entry)
            if name:
                self._aliases[name] = entry.model_id
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

    def programs(self) -> dict[str, Network]:
        """``model_id -> served program`` — the worker-pool payload."""
        with self._lock:
            return {fp: entry.program for fp, entry in self._by_id.items()}
