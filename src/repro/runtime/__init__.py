"""The execution runtime: the engine list plus the result cache.

One seam for every layer (DESIGN.md §14).  The pieces:

* :data:`ENGINES` — the four backend classes
  (:class:`~repro.runtime.engines.BackendEngine` subclasses) in the
  pinned report order; conformance and the CLI instantiate fresh
  engines from it.  Serving calls the batch engine directly.
* :data:`RESULT_CACHE` — the bounded ``(fingerprint, volley digest) →
  output row`` cache the serving stack consults ahead of admission;
  :meth:`~repro.runtime.result_cache.ResultCache.info` is its record.

Compiled plans are not cached here: each
:class:`~repro.network.graph.Network` owns its plan
(:func:`~repro.network.compile_plan.compile_plan`).

Import-weight discipline: importing ``repro.runtime`` loads only the
result cache (stdlib only, no NumPy).  The engine list — which imports every
backend — materializes lazily on first attribute access.
"""

from __future__ import annotations

from typing import Any

from .result_cache import RESULT_CACHE, ResultCache, volley_digest
from ..obs.metrics import METRICS as _METRICS


_METRICS.add_gauges(
    {
        f"cache.result.{name}": lambda name=name: RESULT_CACHE.info()[name]
        for name in ("entries", "bytes", "hits", "misses", "evictions")
    }
)

__all__ = [
    "BackendEngine",
    "ENGINES",
    "RESULT_CACHE",
    "ResultCache",
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
