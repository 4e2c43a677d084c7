"""The execution runtime: the engine list plus cache tiers.

One seam for every layer (DESIGN.md §14).  The pieces:

* :data:`ENGINES` — the four backend classes
  (:class:`~repro.runtime.engines.BackendEngine` subclasses) in the
  pinned report order; conformance and the CLI instantiate fresh
  engines from it.  Serving calls the batch engine directly.
* :data:`PLAN_CACHE` — the fingerprint-keyed LRU of compiled plans,
  with per-entry byte accounting.
* :data:`RESULT_CACHE` — the bounded ``(fingerprint, volley digest) →
  output row`` cache the serving stack consults ahead of admission.
* :func:`cache_info` — the single cache-stats surface.

Import-weight discipline: importing ``repro.runtime`` loads only the
cache tiers (stdlib + numpy), so low-level compilers can store plans
through the tier without cycles.  The engine list — which imports every
backend — materializes lazily on first attribute access.
"""

from __future__ import annotations

from typing import Any

from .cache import PLAN_CACHE, PlanCacheTier, plan_nbytes
from .result_cache import RESULT_CACHE, ResultCache, volley_digest
from ..obs.metrics import METRICS as _METRICS


def _register_cache_gauges() -> None:
    """The caches' live ``cache.<tier>.<name>`` gauges (metrics registry).

    The plan tier's ``hits`` are its own (structural) hits; identity
    hits are answered by the compiler's memo in front of the tier.
    """
    for tier, cache, hits in (
        ("plan", PLAN_CACHE, "hits_structural"),
        ("result", RESULT_CACHE, "hits"),
    ):
        keys = {"entries": "entries", "bytes": "bytes", "hits": hits}
        keys.update(misses="misses", evictions="evictions")
        _METRICS.add_gauges(
            {
                f"cache.{tier}.{name}": lambda cache=cache, key=key: cache.info()[key]
                for name, key in keys.items()
            }
        )


_register_cache_gauges()

__all__ = [
    "BackendEngine",
    "ENGINES",
    "PLAN_CACHE",
    "PlanCacheTier",
    "RESULT_CACHE",
    "ResultCache",
    "cache_info",
    "clear_caches",
    "evict_fingerprint",
    "plan_nbytes",
    "volley_digest",
]

def __getattr__(name: str) -> Any:
    """Resolve the engine names on demand (keeps this package import-light)."""
    if name not in ("BackendEngine", "ENGINES"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import engines

    value = getattr(engines, name)
    globals()[name] = value
    return value


def cache_info() -> dict:
    """One snapshot of every runtime cache.

    The plan cache, the result cache, and the executor probes
    (``REPRO_NATIVE`` mode, Numba presence).
    """
    from ..native import NUMBA_AVAILABLE, native_mode

    return {
        "plan": PLAN_CACHE.info(),
        "result": RESULT_CACHE.info(),
        "native_mode": native_mode(),
        "numba_available": NUMBA_AVAILABLE,
    }


def evict_fingerprint(fingerprint: str) -> dict[str, int]:
    """Purge one retired model from every runtime cache.

    The registry calls this when a model is removed or superseded by a
    hot-swap promotion: a cached plan and result rows keyed on the
    retired fingerprint must never be served again.  Returns the purge
    counts (``{"plans": n, "results": n}``); the per-cache
    ``*.evict.retired`` counters record the same event for dashboards.
    """
    return {
        "plans": PLAN_CACHE.evict_fingerprint(fingerprint),
        "results": RESULT_CACHE.evict_fingerprint(fingerprint),
    }


def clear_caches(*, plans: bool = True, results: bool = True) -> None:
    """Empty the runtime caches (plan cache + identity memo, results)."""
    if plans:
        # Module-path import: ``repro.network`` re-exports a *function*
        # named ``compile_plan``, which would shadow the module.
        from ..network.compile_plan import _PLAN_MEMO

        _PLAN_MEMO.clear()
        PLAN_CACHE.clear()
    if results:
        RESULT_CACHE.clear()
