"""The optional Numba executor of the compiled batch plan.

:mod:`repro.native.jit` runs a :class:`~repro.network.compile_plan.
CompiledPlan` through one row-parallel interpreter compiled with Numba
when it is importable.  ``REPRO_NATIVE=numpy|numba`` (default ``auto``)
selects the executor per run.  See DESIGN.md §11.
"""

from .jit import NATIVE_MODES, NUMBA_AVAILABLE, native_mode

__all__ = ["NATIVE_MODES", "NUMBA_AVAILABLE", "native_mode"]
