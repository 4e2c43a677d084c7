"""Compiled batched evaluation of space-time networks.

The denotational evaluator (:mod:`repro.network.simulator`) walks Python
``Node`` objects and performs :class:`~repro.core.value.Infinity`-object
arithmetic one volley at a time.  The algebra's semantics — ``min``,
``max``, ``lt`` and saturating ``inc`` over ``N0∞`` — map directly onto
saturating integer array operations, so a network can instead be
*compiled once* into a short list of fused kernels and then applied to
a whole **batch** of input volleys in a handful of NumPy calls.

Encoding
--------
Times are ``int64``; ``∞`` is the sentinel ``iinfo(int64).max``
(:data:`INF_I64`).  The codec itself — :data:`INF_I64`,
:data:`MAX_FINITE`, :func:`encode_time`, :func:`decode_time` and
:func:`decode_matrix` — is plain Python in :mod:`repro.core.value`,
re-exported here, so the serving frontend encodes and decodes times
without importing NumPy.  Because the sentinel is the largest
representable value, comparisons against it are automatically correct
(``∞`` loses every ``min``, wins every ``max``, never precedes
anything) and ``inc`` becomes the saturating add
``min(x, INF_I64 - c) + c``, which both keeps ``∞`` absorbing and can
never overflow.  Finite input times must be
strictly below the sentinel; times that would *reach* it through
increments saturate to ``∞`` (the scalar evaluator's arbitrary-precision
ints diverge from this only beyond ``2^63 - 1``, far outside any
physically meaningful spike time — the scalar wrappers fall back to the
interpreted evaluator for such inputs).

Compilation
-----------
:func:`compile_plan` lowers a :class:`~repro.network.graph.Network` to a
:class:`CompiledPlan`:

* **node-major arena** — values live in an ``(n_cols, B)`` int64 arena
  whose rows are *permuted* so inputs, params and every fused kernel
  occupy contiguous row ranges.  The input scatter is one transposed
  copy, every kernel writes one contiguous slice, and constant rows
  (the lattice identities ``∞`` and ``0`` of zero-source ``min``/``max``)
  are filled only when the arena's shape changes;
* **one kernel per (level, kind)** — nodes at equal level can never
  depend on each other, so each level's ``inc`` nodes become one
  gather + clamp + add, its ``lt`` nodes one compare + masked copy, and
  its ``min``/``max`` nodes one gather + rectangular reshape-reduce.
  Mixed-arity ``min``/``max`` groups are padded to a rectangle by
  repeating each node's first source: both operations are idempotent,
  so ``min(a, b, a) = min(a, b)``, and every reduction has one shape;
* **one sort kernel per sorter** — the IR-only ``rank`` rows that
  :func:`repro.ir.sorters.group_sorters` puts in place of a recognized
  sorting network (all of one sorter's rows share their sources) run as
  one gather, one ``np.sort`` along the wire axis and one write of the
  live ranks.  ``∞`` is the largest int64, so it sorts last, as in
  ``N0∞``.  The other backends run rank rows too, each in its own
  terms, and :func:`repro.obs.trace.spike_trace` traces them;
* **one grow-only scratch set** — every batch size runs on a contiguous
  prefix of the same flat arena and gather buffers, kept in a small
  thread-safe free-list, so steady-state runs allocate only their output.

A plan is a pure function of its network, and a ``Network`` is frozen,
so the network owns its plan: :func:`compile_plan` builds it once and
stores it on the network, and the plan lives exactly as long as the
network does.  Structural twins (e.g. a serialization round-trip) each
compile their own.

The plan knows nothing of tracing: the canonical spike trace is a pure
function of fire times (:func:`repro.obs.trace.spike_trace`), so a
trace is taken from one row of :meth:`CompiledPlan.run`'s value matrix
and is byte-identical to the other backends' traces.

Entry points
------------
* :func:`evaluate_batch` — ``(B, n_inputs)`` volley matrix in,
  ``(B, n_outputs)`` spike-time matrix out, one compiled call.
* :func:`encode_volleys` / :func:`decode_matrix` — convert between
  ``Time`` tuples (with :data:`~repro.core.value.INF`) and the sentinel
  ``int64`` encoding.
* :func:`compile_plan` — the program's plan itself, for callers that want
  every node's value (:meth:`CompiledPlan.run`) or kernel counts.

The scalar :func:`repro.network.simulator.evaluate` /
:func:`~repro.network.simulator.evaluate_all` are thin B=1 wrappers over
this engine.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from time import perf_counter as _perf_counter
from typing import Optional, Union

import numpy as np

from ..core.value import (  # the sentinel codec, re-exported here
    INF_I64,
    MAX_FINITE,
    Infinity,
    Time,
    check_time,
    decode_matrix,
    decode_time,
    encode_time,
)
from ..obs import metrics as _obs_metrics
from ..obs import profile as _obs_profile
from .graph import CONST_IDENTITY, Network, NetworkError, classify

VolleyLike = Union[np.ndarray, Sequence[Sequence[Time]]]


# ---------------------------------------------------------------------------
# Encoding helpers
# ---------------------------------------------------------------------------

def encode_volleys(
    volleys: VolleyLike, *, arity: Optional[int] = None
) -> np.ndarray:
    """Encode a batch of volleys as a ``(B, arity)`` int64 matrix.

    Accepts either a sequence of ``Time`` tuples (``INF`` marks silence)
    or an integer ndarray already using the :data:`INF_I64` sentinel.
    Validates membership in ``N0∞``: entries must be non-negative and
    finite entries must not exceed :data:`MAX_FINITE`.
    """
    if isinstance(volleys, np.ndarray):
        if not np.issubdtype(volleys.dtype, np.integer):
            raise NetworkError(
                f"volley matrix must have an integer dtype, got {volleys.dtype}"
            )
        matrix = volleys.astype(np.int64, copy=False)
        if matrix.ndim != 2:
            raise NetworkError(
                f"volley matrix must be 2-D (batch, lines), got {matrix.ndim}-D"
            )
        if matrix.size and int(matrix.min()) < 0:
            raise NetworkError("volley matrix contains negative times")
    else:
        rows = [tuple(encode_time(v) for v in volley) for volley in volleys]
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise NetworkError(f"ragged volley batch: widths {sorted(widths)}")
        width = widths.pop() if widths else (arity or 0)
        matrix = np.asarray(rows, dtype=np.int64).reshape(len(rows), width)
    if arity is not None and matrix.shape[1] != arity:
        raise NetworkError(
            f"expected volleys of {arity} lines, got {matrix.shape[1]}"
        )
    return matrix


def _encode_params(
    network: Network, params: Optional[Mapping[str, Time]]
) -> np.ndarray:
    """Validate and encode a parameter binding in declaration order."""
    params = params or {}
    missing = set(network.param_ids) - set(params)
    if missing:
        raise NetworkError(f"unbound params: {sorted(missing)}")
    encoded = np.empty(len(network.param_ids), dtype=np.int64)
    for slot, name in enumerate(network.param_ids):
        value = check_time(params[name], name=name)
        if isinstance(value, Infinity):
            encoded[slot] = INF_I64
        elif value == 0:
            encoded[slot] = 0
        else:
            raise NetworkError(f"param {name!r} must be 0 or INF, got {value}")
    return encoded


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _IncKernel:
    """One level's delays: gather, clamp to ``INF - amount``, add."""

    lo: int
    hi: int
    srcs: np.ndarray  # (g,) arena rows
    amounts: np.ndarray  # (g, 1) broadcast against the batch dim
    caps: np.ndarray  # INF_I64 - amounts, precomputed


@dataclass(frozen=True)
class _ReduceKernel:
    """One level's ``min`` or ``max`` nodes: gather + rectangular reduce.

    ``srcs`` is node-major ``(g * k,)``; nodes with fewer than ``k``
    sources repeat their first source (idempotence keeps the result).
    """

    lo: int
    hi: int
    srcs: np.ndarray
    k: int
    is_min: bool


@dataclass(frozen=True)
class _LtKernel:
    """One level's ``lt`` races: two gathers, compare, masked latch."""

    lo: int
    hi: int
    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class _SortKernel:
    """One sorter's ``rank`` rows: gather, sort along the wires, write.

    ``ranks`` picks the live sorted positions (rows ``lo..hi``): a slice
    when they are consecutive, else an index array.
    """

    lo: int
    hi: int
    srcs: np.ndarray  # (n,) arena rows, the sorter's input lanes
    ranks: Union[slice, np.ndarray]


_Kernel = Union[_IncKernel, _ReduceKernel, _LtKernel, _SortKernel]


@dataclass(frozen=True)
class _ConstFill:
    """A run of lattice-identity rows, filled when the arena shape changes."""

    lo: int
    hi: int
    value: int


def _kernel_kind(kernel: _Kernel) -> str:
    """Timer label for one kernel (``plan.group.<kind>``)."""
    if isinstance(kernel, _IncKernel):
        return "inc"
    if isinstance(kernel, _ReduceKernel):
        return "min" if kernel.is_min else "max"
    if isinstance(kernel, _SortKernel):
        return "sort"
    return "lt"


def _kernel_reads(kernel: _Kernel) -> set[int]:
    """Arena rows a kernel gathers from (dependency analysis)."""
    if isinstance(kernel, _LtKernel):
        return set(kernel.a.tolist()) | set(kernel.b.tolist())
    return set(kernel.srcs.tolist())


def _execute_kernels(kernels, arena, s1, s2, mask, profiling=False) -> None:
    """Run a kernel list over a node-major arena (the NumPy executor).

    Shared by :class:`CompiledPlan` and the fault-injection oracle that
    deliberately reorders a kernel list — both must execute kernels
    identically for the reorder mutant to model only a scheduling bug.
    With *profiling*, each kernel's wall time accrues to the
    ``plan.group.<kind>`` timer.
    """
    for kernel in kernels:
        if profiling:
            start = _perf_counter()
        # Bound methods and ufunc reductions directly: the np.take /
        # np.min wrappers cost more than the work at small batches.
        if isinstance(kernel, _IncKernel):
            g = kernel.hi - kernel.lo
            arena.take(kernel.srcs, axis=0, out=s1[:g])
            np.minimum(s1[:g], kernel.caps, out=s1[:g])
            np.add(s1[:g], kernel.amounts, out=arena[kernel.lo:kernel.hi])
        elif isinstance(kernel, _ReduceKernel):
            g = kernel.hi - kernel.lo
            arena.take(kernel.srcs, axis=0, out=s1[: g * kernel.k])
            gathered = s1[: g * kernel.k].reshape(g, kernel.k, arena.shape[1])
            reduce = np.minimum.reduce if kernel.is_min else np.maximum.reduce
            reduce(gathered, axis=1, out=arena[kernel.lo:kernel.hi])
        elif isinstance(kernel, _SortKernel):
            # Sort wire-major rows: one contiguous sort per volley.
            n, batch = kernel.srcs.size, arena.shape[1]
            arena.take(kernel.srcs, axis=0, out=s1[:n])
            lanes = s2.reshape(-1)[: n * batch].reshape(batch, n)
            np.copyto(lanes, s1[:n].T)
            lanes.sort(axis=1)
            np.copyto(arena[kernel.lo:kernel.hi], lanes[:, kernel.ranks].T)
        else:  # _LtKernel
            g = kernel.hi - kernel.lo
            arena.take(kernel.a, axis=0, out=s1[:g])
            arena.take(kernel.b, axis=0, out=s2[:g])
            np.less(s1[:g], s2[:g], out=mask[:g])
            out = arena[kernel.lo:kernel.hi]
            out[...] = INF_I64
            np.copyto(out, s1[:g], where=mask[:g])
        if profiling:
            _obs_metrics.METRICS.add_time(
                f"plan.group.{_kernel_kind(kernel)}", _perf_counter() - start
            )


#: Scratch sets a plan's free-list keeps; beyond this, released sets are
#: dropped rather than pooled (burst protection).
_POOL_DEPTH = 4


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------

class CompiledPlan:
    """An executable, batch-oriented compilation of one network structure.

    The level schedule and the zero-source constant classification come
    from the :class:`~repro.network.graph.Network` — this backend only
    encodes what it is told.
    """

    def __init__(self, program: Network):
        #: The network this plan executes.
        self.program = program
        self.n_nodes = len(program.nodes)
        self.n_inputs = len(program.input_ids)
        self.n_params = len(program.param_ids)

        # -- arena row assignment ---------------------------------------------
        # Inputs first (the scatter is then one transposed block copy),
        # params next, then each (level, kind) group contiguously in
        # schedule order.  ``perm[node_id]`` is the node's arena row.
        order: list[int] = list(program.input_ids.values())
        order += list(program.param_ids.values())
        buckets: dict[tuple[int, str], list] = {}
        for node in program.nodes:
            if not node.is_terminal:
                buckets.setdefault(
                    (program.levels[node.id], classify(node)), []
                ).append(node)
        grouped = []
        for (_, kind), nodes in sorted(buckets.items(), key=lambda kv: kv[0]):
            if kind == "rank":
                # One sort kernel per sorter, its rows in rank order.
                sorters: dict[tuple[int, ...], list] = {}
                for node in nodes:
                    sorters.setdefault(node.sources, []).append(node)
                runs = [
                    sorted(rows, key=lambda n: n.amount) for rows in sorters.values()
                ]
            else:
                runs = [nodes]
            for nodes in runs:
                lo = len(order)
                order.extend(n.id for n in nodes)
                grouped.append((kind, lo, len(order), nodes))
        self.n_cols = len(order)
        self.perm = np.empty(self.n_nodes, dtype=np.int64)
        self.perm[order] = np.arange(self.n_cols, dtype=np.int64)

        # -- kernel emission ---------------------------------------------------
        perm = self.perm
        kernels: list[_Kernel] = []
        const_fills: list[_ConstFill] = []
        max_gather = 1
        for kind, lo, hi, nodes in grouped:
            if kind == "inc":
                amounts = np.array([[n.amount] for n in nodes], dtype=np.int64)
                kernels.append(
                    _IncKernel(
                        lo=lo,
                        hi=hi,
                        srcs=perm[[n.sources[0] for n in nodes]],
                        amounts=amounts,
                        caps=INF_I64 - amounts,
                    )
                )
                max_gather = max(max_gather, hi - lo)
            elif kind in ("min", "max"):
                k = max(len(n.sources) for n in nodes)
                padded = [
                    s
                    for n in nodes
                    for s in n.sources + (n.sources[0],) * (k - len(n.sources))
                ]
                kernels.append(
                    _ReduceKernel(
                        lo=lo, hi=hi, srcs=perm[padded], k=k, is_min=kind == "min"
                    )
                )
                max_gather = max(max_gather, len(padded))
            elif kind == "lt":
                kernels.append(
                    _LtKernel(
                        lo=lo,
                        hi=hi,
                        a=perm[[n.sources[0] for n in nodes]],
                        b=perm[[n.sources[1] for n in nodes]],
                    )
                )
                max_gather = max(max_gather, hi - lo)
            elif kind == "rank":
                ranks = [n.amount for n in nodes]
                consecutive = ranks == list(range(ranks[0], ranks[0] + len(ranks)))
                kernels.append(
                    _SortKernel(
                        lo=lo,
                        hi=hi,
                        srcs=perm[list(nodes[0].sources)],
                        ranks=(
                            slice(ranks[0], ranks[-1] + 1)
                            if consecutive
                            else np.array(ranks, dtype=np.int64)
                        ),
                    )
                )
                max_gather = max(max_gather, len(nodes[0].sources))
            else:  # const-inf / const-zero: filled by _acquire
                identity = CONST_IDENTITY[kind]
                value = INF_I64 if isinstance(identity, Infinity) else int(identity)
                const_fills.append(_ConstFill(lo=lo, hi=hi, value=value))
        self.kernels: tuple[_Kernel, ...] = tuple(kernels)
        self.const_fills: tuple[_ConstFill, ...] = tuple(const_fills)
        self.max_gather = max_gather
        self.out_cols = perm[list(program.outputs.values())]

        self._pool: list[list] = []
        self._pool_lock = threading.Lock()

    # -- introspection ---------------------------------------------------------
    @property
    def n_instructions(self) -> int:
        """Fused kernel count plus constant fills."""
        return len(self.kernels) + len(self.const_fills)

    def describe(self) -> str:
        """One line per kernel, for reports and debugging."""
        lines = [
            f"plan: {self.n_nodes} nodes -> {self.n_cols} arena rows, "
            f"{len(self.kernels)} kernel(s), {len(self.const_fills)} const fill(s)"
        ]
        for fill in self.const_fills:
            label = "∞" if fill.value == INF_I64 else fill.value
            lines.append(f"  const({label}) rows {fill.lo}:{fill.hi}")
        for kernel in self.kernels:
            kind = _kernel_kind(kernel)
            line = f"  {kind:<9} x{kernel.hi - kernel.lo}"
            if isinstance(kernel, _ReduceKernel):
                line += f" (arity={kernel.k})"
            elif isinstance(kernel, _SortKernel):
                line += f" (width={kernel.srcs.size})"
            lines.append(line)
        return "\n".join(lines)

    # -- scratch pool ----------------------------------------------------------
    def _acquire(self, batch: int):
        """Borrow a scratch set; return it, its arena and ``s1``/``s2``/``mask``.

        A set is ``[arena, s1, s2, mask, batch]``: flat buffers, replaced
        by exactly sized ones only when *batch* outgrows them, so every
        batch size runs on a contiguous prefix.  No kernel writes const
        rows, so they are refilled only when *batch* changes.
        """
        with self._pool_lock:
            scratch = self._pool.pop() if self._pool else None
        size, gather = self.n_cols * batch, self.max_gather * batch
        if scratch is None or scratch[0].size < size or scratch[1].size < gather:
            scratch = [np.empty(size, np.int64), np.empty(gather, np.int64),
                       np.empty(gather, np.int64), np.empty(gather, bool), None]
            _obs_metrics.METRICS.inc("plan.scratch.allocs")
            _obs_metrics.METRICS.observe_max(
                "plan.scratch_bytes", sum(buf.nbytes for buf in scratch[:4])
            )
        arena = scratch[0][:size].reshape(self.n_cols, batch)
        if scratch[4] != batch:
            for fill in self.const_fills:
                arena[fill.lo:fill.hi] = fill.value
            scratch[4] = batch
        gathers = [buf[:gather].reshape(self.max_gather, batch) for buf in scratch[1:4]]
        return (scratch, arena, *gathers)

    def _release(self, scratch) -> None:
        with self._pool_lock:
            if len(self._pool) < _POOL_DEPTH:
                self._pool.append(scratch)

    # -- execution -------------------------------------------------------------
    def _execute(self, matrix, param_vector, gather_rows) -> np.ndarray:
        """Run once and gather arena *gather_rows* as a ``(B, len)`` copy."""
        if self.n_params and param_vector is None:
            raise NetworkError(f"network has {self.n_params} params; none bound")
        n_in, n_par = self.n_inputs, self.n_params
        scratch, arena, s1, s2, mask = self._acquire(matrix.shape[0])
        arena[:n_in] = matrix.T
        if n_par:
            arena[n_in:n_in + n_par] = param_vector[:, np.newaxis]
        _execute_kernels(
            self.kernels, arena, s1, s2, mask, _obs_profile.profiling_enabled()
        )
        out = np.ascontiguousarray(arena[gather_rows].T)
        self._release(scratch)
        _obs_metrics.METRICS.inc("plan.runs")
        return out

    def run(
        self, matrix: np.ndarray, param_vector: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Evaluate every node on an encoded batch.

        *matrix* is ``(B, n_inputs)`` int64 with the sentinel encoding,
        columns in input declaration order; *param_vector* is the encoded
        parameter binding (declaration order).  Returns the full
        ``(B, n_nodes)`` value matrix in node-id order.
        """
        return self._execute(matrix, param_vector, self.perm)

    def outputs(
        self, matrix: np.ndarray, param_vector: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Like :meth:`run` but gather only the output columns."""
        return self._execute(matrix, param_vector, self.out_cols)

    def warm(self) -> "CompiledPlan":
        """Run one synthetic volley so first real traffic pays no lazy cost.

        Compilation builds the kernels eagerly, but the first run still
        triggers one-time work: NumPy ufunc dispatch and first-touch
        allocation.  Serving workers call this as they load each model so
        request latency never includes it.  The synthetic
        volley is all zeros with every parameter bound to ``∞`` — always
        valid, and the result is discarded.  Returns ``self``.
        """
        matrix = np.zeros((1, self.n_inputs), dtype=np.int64)
        param_vector = np.full(self.n_params, INF_I64, dtype=np.int64)
        self.outputs(matrix, param_vector)
        _obs_metrics.METRICS.inc("plan.warmups")
        return self


def compile_plan(program: Network) -> CompiledPlan:
    """The executable plan for *program*.

    Built once per network, under the ``plan.compile`` timer, and kept
    on that network, so repeat calls return the very same plan.  A
    network is immutable, so a stored plan can never go stale.
    """
    plan = program._plan
    # Unlocked: two threads racing here each build an equal plan and the
    # last store wins, so the race costs one compile and never a result.
    if plan is None:
        with _obs_metrics.METRICS.timeit("plan.compile"):
            plan = program._plan = CompiledPlan(program)
    return plan


# ---------------------------------------------------------------------------
# Batched evaluation API
# ---------------------------------------------------------------------------

def evaluate_batch(
    network: Network,
    inputs: VolleyLike,
    *,
    params: Optional[Mapping[str, Time]] = None,
) -> np.ndarray:
    """Evaluate a batch of volleys in one compiled call.

    *inputs* is a ``(B, n_inputs)`` matrix — either ``Time`` rows or an
    encoded int64 ndarray — with columns in input declaration order
    (``network.input_names``).  Returns an encoded ``(B, n_outputs)``
    int64 matrix, columns in ``network.output_names`` order, with
    :data:`INF_I64` marking "no spike".  Decode with
    :func:`decode_matrix` when ``Time`` values are wanted.

    Under :func:`repro.obs.profiled`, the call's wall-clock is attributed
    to the ``phase.evaluate_batch.{plan,encode,run}`` timers; disabled,
    the overhead is one flag check plus two counter increments.
    """
    metrics = _obs_metrics.METRICS
    if _obs_profile.profiling_enabled():
        with _obs_profile.phase("evaluate_batch.plan"):
            plan = compile_plan(network)
        with _obs_profile.phase("evaluate_batch.encode"):
            matrix = encode_volleys(inputs, arity=plan.n_inputs)
            param_vector = _encode_params(network, params)
        with _obs_profile.phase("evaluate_batch.run"):
            out = plan.outputs(matrix, param_vector)
    else:
        plan = compile_plan(network)
        matrix = encode_volleys(inputs, arity=plan.n_inputs)
        param_vector = _encode_params(network, params)
        out = plan.outputs(matrix, param_vector)
    metrics.inc("evaluate_batch.calls")
    metrics.inc("evaluate_batch.volleys", matrix.shape[0])
    return out


def evaluate_batch_all(
    network: Network,
    inputs: VolleyLike,
    *,
    params: Optional[Mapping[str, Time]] = None,
) -> np.ndarray:
    """Like :func:`evaluate_batch` but return every node's value column."""
    plan = compile_plan(network)
    matrix = encode_volleys(inputs, arity=plan.n_inputs)
    param_vector = _encode_params(network, params)
    return plan.run(matrix, param_vector)

