"""The optional Numba executor: one row-parallel interpreter for every plan.

A :class:`~repro.network.compile_plan.CompiledPlan` has two executors
over the same kernel list:

* the fused-NumPy kernels in :mod:`repro.network.compile_plan` — the
  mandatory fallback, always available;
* the row-parallel scalar interpreter in this module, compiled with
  ``@njit(parallel=True)`` when Numba is importable.

:func:`native_mode` picks one per run from ``REPRO_NATIVE``
(``auto`` when unset, meaning Numba when importable).

The interpreter exploits the defining property of a batched s-t
evaluation: **rows are independent**.  Every volley walks the same
instruction list, so one ``prange`` over the batch dimension
parallelizes the whole program with no level barriers and no
synchronization — each thread interprets complete volleys against its
own contiguous ``(n_cols,)`` arena row.  The instruction encoding is
five parallel arrays (kind, target column, source offset/length, inc
amount) plus one flat source-column array, so a single compiled
function serves *every* plan — compilation cost is paid once per
process, not once per network.

When Numba is absent, :data:`run_rows` falls back to the identical
pure-Python interpreter.  It is far too slow to serve as an executor
(the fused-NumPy path is), but it keeps the instruction encoding
executable everywhere — the property tests run the "numba" code path
byte-for-byte even on machines without Numba.

Saturation semantics match the NumPy kernels exactly: ``∞`` is
:data:`~repro.network.compile_plan.INF_I64`, ``inc`` clamps its operand
to ``INF_I64 - amount`` before adding (absorbing and overflow-free),
``lt`` latches its first operand or ``∞``.
"""

from __future__ import annotations

import os

from ..network.compile_plan import INF_I64
from ..network.graph import NetworkError
from ..obs import metrics as _obs_metrics

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except Exception:  # pragma: no cover - import guard
    NUMBA_AVAILABLE = False
    prange = range

#: Valid ``REPRO_NATIVE`` settings.
NATIVE_MODES = ("auto", "numpy", "numba")

#: Instruction opcodes shared by the flattener and both interpreters.
OP_INC, OP_MIN, OP_MAX, OP_LT = 0, 1, 2, 3

_INF = INF_I64


def native_mode() -> str:
    """The executor this run will use: ``numpy`` or ``numba``.

    Reads ``REPRO_NATIVE`` (``auto`` when unset).  ``numba`` silently
    degrades to ``numpy`` when Numba is not importable — the fused-NumPy
    path is the mandatory fallback — counting the downgrade in the
    ``native.fallbacks`` metric so operators can see it happened.
    """
    requested = os.environ.get("REPRO_NATIVE", "auto").strip().lower() or "auto"
    if requested not in NATIVE_MODES:
        raise NetworkError(
            f"REPRO_NATIVE must be one of {NATIVE_MODES}, got {requested!r}"
        )
    if requested == "numpy":
        return "numpy"
    if NUMBA_AVAILABLE:
        return "numba"
    if requested == "numba":
        _obs_metrics.METRICS.inc("native.fallbacks")
    return "numpy"


def _run_rows_impl(arena, kinds, targets, offs, lens, amounts, srcs):
    batch = arena.shape[0]
    n_ops = kinds.shape[0]
    for r in prange(batch):
        row = arena[r]
        for i in range(n_ops):
            kind = kinds[i]
            if kind == OP_INC:
                x = row[srcs[offs[i]]]
                amount = amounts[i]
                cap = _INF - amount
                if x > cap:
                    x = cap
                row[targets[i]] = x + amount
            elif kind == OP_MIN:
                acc = _INF
                for j in range(offs[i], offs[i] + lens[i]):
                    v = row[srcs[j]]
                    if v < acc:
                        acc = v
                row[targets[i]] = acc
            elif kind == OP_MAX:
                acc = 0
                for j in range(offs[i], offs[i] + lens[i]):
                    v = row[srcs[j]]
                    if v > acc:
                        acc = v
                row[targets[i]] = acc
            else:  # OP_LT
                a = row[srcs[offs[i]]]
                b = row[srcs[offs[i] + 1]]
                row[targets[i]] = a if a < b else _INF


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed
    run_rows = njit(parallel=True, nogil=True, cache=True)(_run_rows_impl)
else:
    run_rows = _run_rows_impl
