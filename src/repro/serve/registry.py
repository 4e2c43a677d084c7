"""The served-model registry, keyed by ``Network.fingerprint()``.

A model's identity in the service is its structural fingerprint — the
same SHA-256 the compiled-plan cache keys on, preserved bit-for-bit by
JSON serialization (:mod:`repro.network.serialize` embeds and verifies
it).  That one choice buys three properties:

* **shippability** — workers receive the serialized document, rebuild
  the network, and can *prove* they loaded the right model by comparing
  fingerprints (the document carries the expected hash);
* **deduplication** — registering a structural twin (same algebra, any
  display name) resolves to the existing entry and shares its compiled
  plan;
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
remove` retires a model outright and purges its compiled plans and
cached result rows from the runtime caches
(:func:`repro.runtime.evict_fingerprint`), so a retired fingerprint can
never be served from stale cache state.  All registry operations are
thread-safe: the training plane registers snapshots and promotes while
the service admits requests.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

# Workers optimize each model from its document; the name stays
# importable here for tooling that times the serving set-up by wrapping
# ``repro.serve.registry.optimize_program``.
from ..ir.passes import optimize_program  # noqa: F401
from ..network import serialize
from ..network.graph import Network, NetworkError
from .protocol import E_NO_MODEL, ServeError

#: Shortest fingerprint prefix accepted as a model reference.
MIN_PREFIX = 8


@dataclass(frozen=True)
class ModelEntry:
    """One registered model: the network and its document.

    ``document`` is the serialized form shipped to worker processes,
    which lower and pass-pipeline optimize it before serving (fire-time
    equal to the network by the IR's provenance contract); ``network``
    stays available in-process for the direct conformance path.
    """

    model_id: str  # == network.fingerprint()
    name: str
    network: Network
    document: str

    @property
    def input_arity(self) -> int:
        return len(self.network.input_ids)

    @property
    def input_names(self) -> list[str]:
        return self.network.input_names

    @property
    def param_names(self) -> list[str]:
        return self.network.param_names

    @property
    def output_names(self) -> list[str]:
        return self.network.output_names

    def describe(self) -> dict:
        """The JSON shape the server's ``models`` op reports."""
        return {
            "id": self.model_id,
            "name": self.name,
            "inputs": self.input_names,
            "params": self.param_names,
            "outputs": self.output_names,
            "nodes": len(self.network.nodes),
            # Worker pools serve the pass-optimized program by default.
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
        network: Network,
        *,
        name: Optional[str] = None,
    ) -> ModelEntry:
        """Register *network*; returns the (possibly pre-existing) entry.

        The serialized document is round-tripped on the spot and its
        fingerprint compared bit-for-bit — a registration fails loudly
        here rather than shipping a document workers would reject.
        """
        fingerprint = network.fingerprint()
        with self._lock:
            entry = self._by_id.get(fingerprint)
        if entry is None:
            # Build outside the lock: serializing a trained column takes
            # a while, and admissions must keep resolving meanwhile.
            document = serialize.dumps(network, indent=None)
            rebuilt = serialize.loads(document)
            if rebuilt.fingerprint() != fingerprint:
                raise NetworkError(
                    f"serialization round-trip changed the fingerprint of "
                    f"{network.name!r}: {fingerprint[:12]} -> "
                    f"{rebuilt.fingerprint()[:12]}"
                )
            entry = ModelEntry(
                model_id=fingerprint,
                name=name or network.name,
                network=network,
                document=document,
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

        Every runtime-cache entry keyed on the retired fingerprint
        (compiled plans in each engine namespace, memoized result rows)
        is purged — a retired model must never be served, not even from
        cache.  Returns the removed entry.
        """
        from .. import runtime

        entry = self.resolve(key)
        with self._lock:
            self._by_id.pop(entry.model_id, None)
            for alias in [
                a for a, fp in self._aliases.items() if fp == entry.model_id
            ]:
                del self._aliases[alias]
        runtime.evict_fingerprint(entry.model_id)
        return entry

    def documents(self) -> dict[str, str]:
        """``model_id -> serialized document`` — the worker-pool payload."""
        with self._lock:
            return {fp: entry.document for fp, entry in self._by_id.items()}
