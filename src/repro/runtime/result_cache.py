"""Bounded ``(program fingerprint, volley digest) → output row`` cache.

The serving stack answers many *identical* requests — loadgen replays,
retried clients, periodic health volleys — and every one of them used to
ride the full batcher → worker-pool → decode path.  :class:`ResultCache`
memoizes finished rows keyed by the model's program fingerprint plus a
canonical digest of the encoded volley and parameter binding, so
:class:`~repro.serve.service.TNNService` can resolve a repeat *ahead of
admission*: no queue slot, no dispatch, no worker round-trip.

Correctness hinges on the key being total over everything that affects
the answer: the fingerprint pins the program (structure + weights), the
digest pins the sentinel-int64 input row *and* the canonical params JSON.
Anything else (deadline, trace flags) only affects scheduling, never the
row, so cached answers are byte-identical to recomputation — a property
the served conformance harness checks, including against deliberate
corruption via :meth:`ResultCache.poison`.

Light by design (stdlib + obs.metrics) so the serving frontend can
import it without pulling in NumPy or the engines.
"""

from __future__ import annotations

import hashlib
import threading
from array import array
from collections import OrderedDict
from typing import Any, Optional, Sequence

from ..core.value import INF, Infinity
from ..obs import metrics as _obs_metrics

_UNSET = object()

#: Flat per-entry overhead (keys, OrderedDict slot, tuple header).
_ENTRY_OVERHEAD = 96


def volley_digest(encoded: Sequence[int], params_key: str = "") -> str:
    """Canonical digest of one encoded volley + parameter binding.

    *encoded* is one request row of sentinel-int64 times (a sequence of
    ints), packed as native int64 bytes with :mod:`array`.  The row's
    shape is folded in, as NumPy's packing of the same row would fold
    it, and *params_key* (the service's canonical params JSON) rides
    behind a separator byte.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((len(encoded),)).encode("ascii"))
    digest.update(array("q", encoded).tobytes())
    digest.update(b"|")
    digest.update(params_key.encode("utf-8"))
    return digest.hexdigest()


def _row_nbytes(row: tuple) -> int:
    """Approximate resident bytes of one cached output row."""
    return _ENTRY_OVERHEAD + 16 * len(row)


class ResultCache:
    """LRU over finished output rows with entry and byte bounds.

    Metrics: ``result_cache.hit`` / ``result_cache.miss`` /
    ``result_cache.evict`` (and ``result_cache.poisoned`` when the fault
    harness corrupts a row on purpose).  Thread-safe; shared process-wide
    as :data:`RESULT_CACHE`.
    """

    def __init__(
        self,
        *,
        max_entries: Optional[int] = 4096,
        max_bytes: Optional[int] = 32 << 20,
    ) -> None:
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple[str, str], tuple]" = OrderedDict()
        self._nbytes = 0
        self._max_entries = max_entries
        self._max_bytes = max_bytes

    # -- lookup / insert ------------------------------------------------

    def get(self, fingerprint: str, digest: str) -> Optional[tuple]:
        with self._lock:
            key = (fingerprint, digest)
            row = self._entries.get(key)
            if row is None:
                _obs_metrics.METRICS.inc("result_cache.miss")
                return None
            self._entries.move_to_end(key)
            _obs_metrics.METRICS.inc("result_cache.hit")
            return row

    def put(self, fingerprint: str, digest: str, row: tuple) -> None:
        with self._lock:
            key = (fingerprint, digest)
            old = self._entries.pop(key, None)
            if old is not None:
                self._nbytes -= _row_nbytes(old)
            self._entries[key] = row
            self._nbytes += _row_nbytes(row)
            while self._entries and (
                (
                    self._max_entries is not None
                    and len(self._entries) > self._max_entries
                )
                or (
                    self._max_bytes is not None
                    and self._nbytes > self._max_bytes
                )
            ):
                _, evicted = self._entries.popitem(last=False)
                self._nbytes -= _row_nbytes(evicted)
                _obs_metrics.METRICS.inc("result_cache.evict")

    def evict_fingerprint(self, fingerprint: str) -> int:
        """Drop every cached row of one model; returns the count.

        Called when a model is retired from the serving registry
        (removal, or hot-swap promotion that supersedes it): a retired
        fingerprint's rows must never be served again, and keeping them
        would let a later re-registration of the same structure start
        from rows the operator believed gone.  Counted separately from
        capacity eviction as ``result_cache.evict.retired``.
        """
        with self._lock:
            keys = [key for key in self._entries if key[0] == fingerprint]
            for key in keys:
                row = self._entries.pop(key)
                self._nbytes -= _row_nbytes(row)
            if keys:
                _obs_metrics.METRICS.inc(
                    "result_cache.evict.retired", len(keys)
                )
            return len(keys)

    # -- fault injection ------------------------------------------------

    def poison(self) -> Optional[tuple[str, str]]:
        """Corrupt one cached row in place (serving-fault injection).

        Flips the first scalar of the most recently used tuple row —
        finite times bump by one, ``INF`` collapses to ``0`` — and
        returns the corrupted ``(fingerprint, digest)`` key, or ``None``
        when nothing corruptible is cached.  The served byte-check
        harness must flag the poisoned answer as a mismatch; a harness
        that cannot see this would also miss a genuinely buggy cache.
        """
        with self._lock:
            for key in reversed(self._entries):
                row = self._entries[key]
                if not row:
                    continue
                head = row[0]
                bad = 0 if isinstance(head, Infinity) or head is INF else head + 1
                self._entries[key] = (bad,) + row[1:]
                _obs_metrics.METRICS.inc("result_cache.poisoned")
                return key
            return None

    # -- knobs / introspection ------------------------------------------

    def configure(
        self, *, max_entries: Any = _UNSET, max_bytes: Any = _UNSET
    ) -> tuple[Optional[int], Optional[int]]:
        """Rebound the cache; returns the previous bounds pair."""
        with self._lock:
            previous = (self._max_entries, self._max_bytes)
            if max_entries is not _UNSET:
                if max_entries is not None and max_entries < 1:
                    raise ValueError(
                        f"cache limit must be >= 1, got {max_entries}"
                    )
                self._max_entries = max_entries
            if max_bytes is not _UNSET:
                if max_bytes is not None and max_bytes < 1:
                    raise ValueError(f"cache limit must be >= 1, got {max_bytes}")
                self._max_bytes = max_bytes
            while self._entries and (
                (
                    self._max_entries is not None
                    and len(self._entries) > self._max_entries
                )
                or (
                    self._max_bytes is not None
                    and self._nbytes > self._max_bytes
                )
            ):
                _, evicted = self._entries.popitem(last=False)
                self._nbytes -= _row_nbytes(evicted)
                _obs_metrics.METRICS.inc("result_cache.evict")
            return previous

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._nbytes = 0
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def info(self) -> dict:
        counter = _obs_metrics.METRICS.counter
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._nbytes,
                "max_entries": self._max_entries,
                "max_bytes": self._max_bytes,
                "hits": counter("result_cache.hit"),
                "misses": counter("result_cache.miss"),
                "evictions": counter("result_cache.evict"),
                "retired": counter("result_cache.evict.retired"),
            }


#: The process-wide result cache the serving stack consults.
RESULT_CACHE = ResultCache()
