"""The plan cache: one fingerprint-keyed LRU for the batch engine.

:class:`PlanCacheTier` stores compiled plans keyed by program
fingerprint, evicts the least recently used plan beyond :attr:`limit`
entries, and accounts each entry's resident bytes
(:func:`plan_nbytes`).  Lookups count ``plan_cache.hit.structural`` /
``plan_cache.miss``; capacity evictions count ``plan_cache.evict`` and
retirements (:meth:`PlanCacheTier.evict_fingerprint`)
``plan_cache.evict.retired``.  The compiler keeps a weak identity memo
in front of the tier, so identity hits (``plan_cache.hit.identity``)
never reach here.

The module is deliberately light (stdlib + obs.metrics only) so the
compiler can import it without touching the engines.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional

from ..obs import metrics as _obs_metrics

#: Flat per-entry overhead charged on top of the walked payload bytes
#: (dict slots, key strings, bookkeeping).
_ENTRY_OVERHEAD = 64


def plan_nbytes(value: Any) -> int:
    """Estimated resident bytes of one cached plan.

    Recursively sums ``ndarray.nbytes`` over the object graph (dicts,
    sequences, instance ``__dict__``s), deduplicating shared arrays by
    identity.  Scalars and strings are ignored — plans are array-heavy,
    and the accounting only needs to be honest about the big allocations.
    """
    seen: set[int] = set()

    def walk(obj: Any) -> int:
        if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
            return 0
        oid = id(obj)
        if oid in seen:
            return 0
        seen.add(oid)
        nbytes = getattr(obj, "nbytes", None)
        if isinstance(nbytes, int) and hasattr(obj, "dtype"):
            return nbytes
        if isinstance(obj, dict):
            return sum(walk(v) for v in obj.values())
        if isinstance(obj, (list, tuple, set, frozenset)):
            return sum(walk(v) for v in obj)
        attrs = getattr(obj, "__dict__", None)
        if attrs is not None:
            return sum(walk(v) for v in attrs.values())
        return 0

    return _ENTRY_OVERHEAD + walk(value)


class PlanCacheTier:
    """Fingerprint-keyed LRU of compiled plans with byte accounting.

    All operations are thread-safe (serving workers and the batcher
    thread compile concurrently).  :attr:`limit` is read on every
    insert, so lowering it takes effect at the next :meth:`put`.
    """

    def __init__(self, limit: int = 128) -> None:
        if limit < 1:
            raise ValueError(f"cache limit must be >= 1, got {limit}")
        self.limit = limit
        self._lock = threading.Lock()
        #: fingerprint -> (plan, nbytes), least recently used first.
        self._entries: "OrderedDict[str, tuple[Any, int]]" = OrderedDict()
        self._nbytes = 0

    def get(self, fingerprint: str) -> Optional[Any]:
        """The cached plan, counting a structural hit or a miss."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                _obs_metrics.METRICS.inc("plan_cache.miss")
                return None
            self._entries.move_to_end(fingerprint)
        _obs_metrics.METRICS.inc("plan_cache.hit.structural")
        return entry[0]

    def put(
        self, fingerprint: str, value: Any, *, nbytes: Optional[int] = None
    ) -> Any:
        """Insert (or refresh) a plan, then evict down to :attr:`limit`."""
        size = plan_nbytes(value) if nbytes is None else int(nbytes)
        with self._lock:
            old = self._entries.pop(fingerprint, None)
            if old is not None:
                self._nbytes -= old[1]
            self._entries[fingerprint] = (value, size)
            self._nbytes += size
            while len(self._entries) > self.limit:
                _key, (_plan, evicted) = self._entries.popitem(last=False)
                self._nbytes -= evicted
                _obs_metrics.METRICS.inc("plan_cache.evict")
        return value

    def evict_fingerprint(self, fingerprint: str) -> int:
        """Drop one retired model's plan; returns the count (0 or 1).

        The retirement twin of capacity eviction, counted separately as
        ``plan_cache.evict.retired`` (dashboards read ``.evict`` as
        capacity pressure).
        """
        with self._lock:
            entry = self._entries.pop(fingerprint, None)
            if entry is None:
                return 0
            self._nbytes -= entry[1]
        _obs_metrics.METRICS.inc("plan_cache.evict.retired")
        return 1

    def clear(self) -> int:
        """Drop every entry; returns the count.  Fires no evict counters."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._nbytes = 0
            return dropped

    def info(self) -> dict:
        """Occupancy, limit and lifetime lookup/eviction counts."""
        counter = _obs_metrics.METRICS.counter
        with self._lock:
            entries, nbytes = len(self._entries), self._nbytes
        return {
            "entries": entries,
            "bytes": nbytes,
            "limit": self.limit,
            "hits_identity": counter("plan_cache.hit.identity"),
            "hits_structural": counter("plan_cache.hit.structural"),
            "misses": counter("plan_cache.miss"),
            "evictions": counter("plan_cache.evict"),
            "retired": counter("plan_cache.evict.retired"),
        }


#: The process-wide plan cache the batch engine compiles through.
PLAN_CACHE = PlanCacheTier()
