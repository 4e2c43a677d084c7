"""repro.kernels — the s-t kernel standard library.

Reusable space-time kernels (STICK-style interval arithmetic, memory,
synchronization, routing, accumulation) authored as IR subprograms with
named ports, a composition operator wiring them into single programs
that flow through the pass pipeline and all four backends, and the
per-kernel conformance contract (function tables, generator family,
served demos).
"""

from .compose import (
    Composition,
    KernelGraph,
    compose,
    kernel_attribution,
)
from .kernel import Kernel, KernelError
from .library import (
    KERNELS,
    KernelSpec,
    accumulator,
    barrier,
    build_kernel,
    demo_network,
    interval_intersect,
    interval_max,
    interval_min,
    interval_shift,
    interval_union,
    kernel_names,
    latch,
    router,
)

__all__ = [
    "Kernel",
    "KernelError",
    "KernelGraph",
    "Composition",
    "compose",
    "kernel_attribution",
    "KERNELS",
    "KernelSpec",
    "kernel_names",
    "build_kernel",
    "demo_network",
    "interval_shift",
    "interval_min",
    "interval_max",
    "interval_union",
    "interval_intersect",
    "latch",
    "barrier",
    "router",
    "accumulator",
]
