"""Sharded worker pool: one compiled-and-warmed batch engine per process.

Each worker is a separate OS process that starts with no models.  Every
model reaches it as a ``load`` message carrying the serialized document
— when the pool starts, when a model is registered, and when a
replacement worker is brought up to date — and is rebuilt through
:func:`load_program`: verify the embedded fingerprint, lower to the IR,
run the optimizer, and **warm** the compiled plan, so the first real
request never pays compilation or first-touch cost.  Eval messages are
answered by the batch engine
(:func:`~repro.network.compile_plan.evaluate_batch`).  Both loading and
evaluating live in one worker body, :class:`_Worker`, which both pools
run; :func:`_worker_main` is only its pipe transport.
Work arrives as already-encoded ``(B, n_inputs)`` int64 matrices (the
micro-batcher's output) and leaves as the engine's raw
``(B, n_outputs)`` result, keeping the IPC payload two NumPy arrays per
batch.

Dispatch is **least-loaded**: :meth:`ProcessWorkerPool.submit` picks the
alive worker with the fewest in-flight batches.  A dedicated collector
thread multiplexes every worker pipe; a broken pipe (crash, kill, OOM)
is detected there, the dead worker's in-flight batches are failed back
to the service (which retries them on another worker), and a
replacement process is spawned in its place up to ``max_restarts``
times.  :meth:`ProcessWorkerPool.inject_crash` makes a worker die on
command — the fault-injection hook the served-conformance tests use to
prove byte-identical responses survive crashes.

:class:`InlineWorkerPool` is the same interface executed synchronously
in-process — no IPC, no fork — used by unit tests and by benchmark
configurations that isolate scheduling cost from process cost.  It
calls the same :class:`_Worker` directly, so a sampled batch there sets
the process-wide profiling flag in the serving process itself.

Both pools count into the frontend's one metrics registry: a process
worker's counts arrive every :data:`_METRICS_PIGGYBACK_EVERY`-th reply,
so they may lag by up to 15 batches per worker (and a crash loses them).
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Callable

import numpy as np

from ..core.value import INF, Time
from ..ir.passes import optimize_program
from ..ir.program import Program, lower
from ..network import serialize
from ..network.compile_plan import INF_I64, compile_plan, evaluate_batch
from ..obs import metrics as _obs_metrics
from ..obs import profile as _profile
from ..obs import rtrace as _rtrace
from .protocol import E_WORKER, ServeError

#: A worker piggybacks what it counted since its last report on every
#: Nth eval reply (every reply would double the IPC payload for
#: slow-moving counters).
_METRICS_PIGGYBACK_EVERY = 16


def _pool_gauges(pool) -> dict:
    """The live gauges a pool owns in the metrics registry."""
    return {
        "serve.workers_alive": pool.alive_count,
        "serve.pool.inflight": pool.inflight,
    }


def load_program(model_id: str, document: str) -> Program:
    """Rebuild one served model from its document, ready to evaluate.

    Deserialize, verify that the document's fingerprint is *model_id*
    (:class:`ValueError` otherwise), lower to the IR, lower each
    recognized sorting network to rank rows, run the optimizer, and warm
    the compiled plan.  Grouping comes before the optimizer, whose
    rewrites would hide a sorter's shape; it also leaves the sweep a
    fraction of the nodes.  :meth:`_Worker.load` is its one caller.
    """
    # Imported here: only a worker's load groups sorters, never the frontend.
    from ..ir.sorters import group_sorters

    network = serialize.loads(document)
    if network.fingerprint() != model_id:
        raise ValueError(
            f"document fingerprint {network.fingerprint()[:12]} does not "
            f"match model id {model_id[:12]}"
        )
    program, _report = optimize_program(group_sorters(lower(network)))
    compile_plan(program).warm()
    return program


def _decode_params(params_enc: dict[str, int]) -> dict[str, Time]:
    """Sentinel-encoded parameter binding back to ``Time`` values."""
    return {
        name: (INF if value == INF_I64 else int(value))
        for name, value in params_enc.items()
    }


@dataclass
class Job:
    """One dispatched batch: encoded inputs plus completion callbacks.

    ``on_done`` receives the raw ``(B, n_outputs)`` int64 result;
    ``on_fail`` receives a human-readable reason.  Exactly one of the
    two is invoked, by :func:`_complete`, from the pool's collector
    thread (process pool) or the submitting thread (inline pool) —
    callbacks must be thread-safe.

    ``want_spans`` asks the executing worker to time the engine run and
    report it back: level 1 is wall clock only (two clock reads), level
    2 additionally runs the engine under :mod:`repro.obs.profile` for
    per-phase attribution (the priced path — the service samples it).
    ``on_extras``, when set, receives that timing payload —
    ``{"eval_s": float, "phases": {name: seconds}}`` — immediately
    before ``on_done``.
    """

    job_id: int
    model_id: str
    matrix: np.ndarray
    params_enc: dict[str, int]
    on_done: Callable[[np.ndarray], None]
    on_fail: Callable[[str], None]
    want_spans: int = 0
    on_extras: "Callable[[dict], None] | None" = None


# ---------------------------------------------------------------------------
# Worker body (shared by both pools) and its process transport
# ---------------------------------------------------------------------------

def _phase_totals() -> dict[str, float]:
    """Accumulated ``phase.*`` timer seconds, keyed without the prefix."""
    timers = _obs_metrics.METRICS.snapshot()["timers"]
    return {
        name[len("phase."):]: entry["total_s"]
        for name, entry in timers.items()
        if name.startswith("phase.")
    }


class _Worker:
    """One worker's models and the two things it does with them.

    A process worker (:func:`_worker_main`) and :class:`InlineWorkerPool`
    each hold one and call it the same way, so where a batch runs cannot
    change its answer, its counters or its trace.
    """

    def __init__(self) -> None:
        self.programs: dict[str, Program] = {}
        #: Plan warm-ups so far (one per loaded model).
        self.warmups = 0

    def load(self, model_id: str, document: str) -> int:
        """Rebuild *model_id* through :func:`load_program`; the new warm-up count."""
        self.programs[model_id] = load_program(model_id, document)
        self.warmups += 1
        return self.warmups

    def eval(
        self, model_id: str, matrix: np.ndarray, params_enc: dict, want_spans: int
    ) -> tuple[np.ndarray, dict]:
        """Evaluate one batch: ``(result, timing extras)``.

        The extras are empty at *want_spans* 0, ``{"eval_s": …}`` at
        level 1 (two clock reads), and add ``"phases"`` at level 2, when
        the engine runs under :func:`~repro.obs.profile.profiled`.  That
        flag is process-wide: in-process, another thread's profiled
        phases that overlap the batch land in its deltas too.
        """
        program = self.programs.get(model_id)
        if program is None:
            raise KeyError(f"model {model_id[:12]} not loaded")
        before = _phase_totals() if want_spans >= 2 else None
        started = perf_counter()
        with _profile.profiled() if before is not None else nullcontext():
            result = evaluate_batch(program, matrix, params=_decode_params(params_enc))
        if not want_spans:
            return result, {}
        extras: dict = {"eval_s": perf_counter() - started}
        if before is not None:
            phases = {
                name: total - before.get(name, 0.0)
                for name, total in _phase_totals().items()
                if total - before.get(name, 0.0) > 0.0
            }
            if phases:
                extras["phases"] = phases
        return result, extras


def _complete(job: Job, result, extras: dict, failure: "str | None" = None) -> None:
    """Finish *job* the one way both pools do.

    On success: ``on_extras`` (when there are extras), then ``on_done``.
    On *failure*: count ``serve.worker.failures``, then ``on_fail``.
    """
    if failure is not None:
        _obs_metrics.METRICS.inc("serve.worker.failures")
        job.on_fail(failure)
        return
    if extras and job.on_extras is not None:
        job.on_extras(extras)
    job.on_done(result)


def _worker_main(conn) -> None:
    """The worker process: a :class:`_Worker` behind a pipe.

    Runs in a child process (or, for unit tests, a plain thread with the
    other pipe end held by the test).  It reports ready with no models,
    then serves messages in order, so every model a ``load`` brings is
    rebuilt before any eval behind it on the pipe runs.  Automatic
    collections are off during a load, which allocates a whole model
    heap at once and would otherwise be walked by collection after
    collection; the load ends in one full collection and
    ``gc.freeze()``: the compiled programs and warmed plans are
    immortal, and frozen objects keep steady-state eval batches from
    paying collections that walk the model heap.
    Messages:

    * ``("eval", job_id, model_id, matrix, params_enc, want_spans)`` →
      ``("ok", job_id, result, extras)`` or
      ``("err", job_id, reason, extras)``.  The *extras* dict carries
      :meth:`_Worker.eval`'s engine timings and, every
      :data:`_METRICS_PIGGYBACK_EVERY` replies, what the worker counted
      since its last report (:func:`~repro.obs.metrics.snapshot_delta`,
      first against its start; a snapshot takes no inherited lock);
    * ``("load", model_id, document)`` → ``("loaded", model_id, warmups)``,
      or ``("load-failed", model_id, reason)`` when the document does
      not rebuild (the worker keeps serving its other models);
    * ``("ping", token)`` → ``("pong", token, delta)``: every pong
      reports what the worker counted since its last report, so after a
      warm barrier the parent registry holds every count of every batch
      sent before it
    * ``("crash",)`` → hard ``os._exit`` (fault-injection hook)
    * ``("stop",)`` → clean return
    """
    worker = _Worker()
    reported = _obs_metrics.METRICS.snapshot()

    def unreported() -> dict:
        nonlocal reported
        current = _obs_metrics.METRICS.snapshot()
        delta = _obs_metrics.snapshot_delta(current, reported)
        reported = current
        return delta

    conn.send(("ready", os.getpid(), sorted(worker.programs), worker.warmups))
    replies = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        op = message[0]
        if op == "eval":
            _op, job_id, model_id, matrix, params_enc, want_spans = message
            try:
                result, extras = worker.eval(model_id, matrix, params_enc, want_spans)
                reply = ("ok", job_id, result, extras)
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                reply = ("err", job_id, f"{type(exc).__name__}: {exc}", {})
            if replies % _METRICS_PIGGYBACK_EVERY == 0:
                reply[3]["metrics"] = unreported()
            conn.send(reply)
            replies += 1
        elif op == "load":
            model_id = message[1]
            gc.disable()
            try:
                warmups = worker.load(model_id, message[2])
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                conn.send(("load-failed", model_id, f"{type(exc).__name__}: {exc}"))
            else:
                conn.send(("loaded", model_id, warmups))
            # The document is parsed: do not hold it until the next message.
            del message
            gc.collect()
            gc.freeze()
            gc.enable()
        elif op == "ping":
            conn.send(("pong", message[1], unreported()))
        elif op == "crash":
            os._exit(3)
        elif op == "stop":
            conn.close()
            return
        else:
            conn.send(("err", None, f"unknown op {op!r}", {}))


# ---------------------------------------------------------------------------
# Process pool
# ---------------------------------------------------------------------------

@dataclass
class _WorkerHandle:
    slot: int
    process: "mp.process.BaseProcess"
    conn: "mp_connection.Connection"
    generation: int
    alive: bool = True
    jobs: dict[int, Job] = field(default_factory=dict)
    #: Plan warm-ups the worker has reported (one per loaded model).
    warmups: int = 0

    @property
    def inflight(self) -> int:
        return len(self.jobs)


class ProcessWorkerPool:
    """Multiprocessing workers with least-loaded dispatch and restarts.

    The workers are forked empty; *documents* are then shipped to them
    as ``load`` messages, and the constructor returns once every worker
    holds them (:meth:`wait_loaded`).  A server passes no documents,
    registers its models afterwards and then calls :meth:`wait_loaded`
    itself, so no worker starts with the parent's model heap.
    """

    def __init__(
        self,
        documents: dict[str, str],
        *,
        n_workers: int = 2,
        max_restarts: int = 8,
        start_timeout: float = 60.0,
    ):
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        #: ``model_id -> document`` of every model a replacement worker
        #: must be sent (a document that fails to load is dropped).
        self._documents: dict[str, str] = {}
        #: ``model_id -> reason`` of every model a worker failed to load.
        self._failed: dict[str, str] = {}
        self._max_restarts = max_restarts
        self.start_timeout = start_timeout
        self._lock = threading.Lock()
        self._stopping = False
        self._restarts = 0
        self._ping_tokens = itertools.count(1)
        #: Outstanding warm-barrier pings: token -> (worker, event).
        self._pongs: dict[int, tuple[_WorkerHandle, threading.Event]] = {}
        # Prefer fork where available (fast, shares the warm parent
        # image); spawn elsewhere.  The worker body is a module-level
        # function, so both start methods work.
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._workers: list[_WorkerHandle] = [
            self._spawn(slot, generation=0) for slot in range(n_workers)
        ]
        self._gauges = _pool_gauges(self)
        _obs_metrics.METRICS.add_gauges(self._gauges)
        self._collector = threading.Thread(
            target=self._collect_loop, name="serve-pool-collector", daemon=True
        )
        self._collector.start()
        for model_id, document in documents.items():
            self.add_model(model_id, document)
        try:
            self.wait_loaded(documents)
        except ServeError:
            self.shutdown()
            raise

    # -- lifecycle ------------------------------------------------------------
    def _spawn(self, slot: int, *, generation: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"serve-worker-{slot}.{generation}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(self.start_timeout):
            process.terminate()
            raise ServeError(
                E_WORKER, f"worker {slot} did not become ready in time"
            )
        try:
            message = parent_conn.recv()
        except (EOFError, OSError):
            process.terminate()
            raise ServeError(E_WORKER, f"worker {slot} exited before ready")
        if message[0] != "ready":
            process.terminate()
            raise ServeError(
                E_WORKER, f"worker {slot} sent {message[0]!r} instead of ready"
            )
        return _WorkerHandle(
            slot=slot, process=process, conn=parent_conn, generation=generation
        )

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the collector and terminate every worker."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            workers = list(self._workers)
        _obs_metrics.METRICS.remove_gauges(self._gauges)
        self._wake()
        self._collector.join(timeout=timeout)
        for worker in workers:
            if worker.alive:
                try:
                    worker.conn.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
        for worker in workers:
            worker.process.join(timeout=timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.conn.close()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except (OSError, BrokenPipeError):
            pass

    # -- introspection --------------------------------------------------------
    @property
    def restarts(self) -> int:
        return self._restarts

    def alive_count(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers if w.alive)

    def inflight(self) -> int:
        with self._lock:
            return sum(w.inflight for w in self._workers)

    def warmups(self) -> list[int]:
        """Per-slot plan warm-up counts."""
        with self._lock:
            return [w.warmups for w in self._workers]

    def failed_models(self) -> dict[str, str]:
        """``model_id -> reason`` of every model a worker failed to load."""
        with self._lock:
            return dict(self._failed)

    # -- dispatch -------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Send *job* to the least-loaded alive worker."""
        with self._lock:
            if self._stopping:
                raise ServeError(E_WORKER, "pool is shutting down")
            alive = [w for w in self._workers if w.alive]
            if not alive:
                raise ServeError(E_WORKER, "no alive workers")
            worker = min(alive, key=lambda w: w.inflight)
            worker.jobs[job.job_id] = job
            try:
                worker.conn.send(
                    (
                        "eval",
                        job.job_id,
                        job.model_id,
                        job.matrix,
                        job.params_enc,
                        job.want_spans,
                    )
                )
            except (OSError, BrokenPipeError):
                # The pipe died under us; the collector will reap the
                # worker, but this job must fail over immediately.
                del worker.jobs[job.job_id]
                worker.alive = False
                raise ServeError(E_WORKER, "worker pipe broken on submit")
        _obs_metrics.METRICS.inc("serve.pool.submits")

    def add_model(self, model_id: str, document: str) -> None:
        """Ship a newly registered model to every alive worker."""
        with self._lock:
            self._documents[model_id] = document
            self._failed.pop(model_id, None)
            for worker in self._workers:
                if worker.alive:
                    try:
                        worker.conn.send(("load", model_id, document))
                    except (OSError, BrokenPipeError):
                        worker.alive = False

    def wait_warm(self, timeout: float = 30.0) -> bool:
        """Barrier: every alive worker has drained its message backlog.

        Worker pipes are FIFO, so a ``pong`` proves the worker already
        processed every ``load`` sent before the ping — newly shipped
        models are rebuilt, verified, and engine-warmed — and every eval:
        the pong carries the worker's unreported counts, which the
        collector absorbs before it releases the barrier.  The hot-swap
        promotion path calls this *before* flipping an alias, so the
        first admission routed to the new fingerprint never pays
        rebuild cost and can never race an unloaded model.  Returns
        ``False`` on timeout.  A worker that dies mid-barrier releases
        it: its replacement is sent every document before it can receive
        an eval, so no request reaches it ahead of a model it serves.
        """
        events = []
        with self._lock:
            for worker in self._workers:
                if not worker.alive:
                    continue
                token = next(self._ping_tokens)
                event = threading.Event()
                self._pongs[token] = (worker, event)
                try:
                    worker.conn.send(("ping", token))
                except (OSError, BrokenPipeError):
                    worker.alive = False
                    del self._pongs[token]
                    continue
                events.append(event)
        deadline = monotonic() + timeout
        warm = True
        for event in events:
            if not event.wait(timeout=max(0.0, deadline - monotonic())):
                warm = False
        return warm

    def wait_loaded(self, model_ids) -> None:
        """Block until every worker holds *model_ids*, or raise.

        :class:`ServeError` when the workers are not warm within
        ``start_timeout`` or when a worker failed to load one of the
        models.  The constructor and a server's start-up both end here.
        """
        if not self.wait_warm(timeout=self.start_timeout):
            raise ServeError(
                E_WORKER,
                f"workers did not load their models in {self.start_timeout:g}s",
            )
        failed = self.failed_models()
        for model_id in model_ids:
            if model_id in failed:
                raise ServeError(
                    E_WORKER, f"model {model_id[:12]} did not load: {failed[model_id]}"
                )

    def inject_crash(self, slot: int) -> None:
        """Make worker *slot* die abruptly (fault-injection hook)."""
        with self._lock:
            worker = self._workers[slot]
            if worker.alive:
                try:
                    worker.conn.send(("crash",))
                except (OSError, BrokenPipeError):
                    worker.alive = False

    # -- collector ------------------------------------------------------------
    def _collect_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    return
                # Every pipe not yet reaped, dead-marked ones included: a
                # send that failed on a crashed worker only marks it dead,
                # and its in-flight jobs fail over when the EOF is reaped.
                watched = {w.conn: w for w in self._workers if not w.conn.closed}
            conns = list(watched) + [self._wake_r]
            for conn in mp_connection.wait(conns, timeout=0.25):
                if conn is self._wake_r:
                    try:
                        self._wake_r.recv()
                    except (EOFError, OSError):
                        pass
                    continue
                worker = watched[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._reap(worker)
                    continue
                self._deliver(worker, message)

    def _deliver(self, worker: _WorkerHandle, message: tuple) -> None:
        op = message[0]
        if op in ("ok", "err"):
            _op, job_id, payload, extras = message
            with self._lock:
                job = worker.jobs.pop(job_id, None)
            if "metrics" in extras:
                _obs_metrics.METRICS.absorb(extras.pop("metrics"))
            if job is None:
                return  # job already failed over after a crash race
            failure = None if op == "ok" else f"worker {worker.slot} error: {payload}"
            _complete(job, payload, extras, failure)
        elif op == "loaded":
            with self._lock:
                worker.warmups = message[2]
        elif op == "load-failed":
            # Replacements are not sent a document that does not load.
            _op, model_id, reason = message
            with self._lock:
                self._documents.pop(model_id, None)
                self._failed[model_id] = reason
            _obs_metrics.METRICS.inc("serve.worker.failures")
        elif op == "pong":
            # Absorbed before the barrier releases: its waiter then sees
            # every count of the batches the worker ran before the ping.
            _obs_metrics.METRICS.absorb(message[2])
            with self._lock:
                pending = self._pongs.pop(message[1], None)
            if pending is not None:
                pending[1].set()

    def _reap(self, worker: _WorkerHandle) -> None:
        """A worker pipe broke: fail its jobs over, then try to restart."""
        with self._lock:
            worker.alive = False
            orphans = list(worker.jobs.values())
            worker.jobs.clear()
            # Release warm-barrier waiters pinned on the dead worker: its
            # replacement is sent every document before any eval.
            for token in [
                t for t, (w, _) in self._pongs.items() if w is worker
            ]:
                self._pongs.pop(token)[1].set()
            worker.conn.close()
            can_restart = not self._stopping and self._restarts < self._max_restarts
        _obs_metrics.METRICS.inc("serve.worker.failures", len(orphans))
        _rtrace.FLIGHT.trip("worker-crash")
        worker.process.join(timeout=1.0)
        for job in orphans:
            job.on_fail(f"worker {worker.slot} crashed")
        if can_restart:
            self._replace(worker)

    def _replace(self, dead: _WorkerHandle) -> None:
        """Fork an empty replacement for *dead* and replay its models.

        The replayed ``load`` messages are queued before the replacement
        is installed, so every eval it is later sent runs behind them.
        They are sent outside the lock (a large document blocks until the
        worker reads it); models registered meanwhile are sent at install.
        """
        try:
            replacement = self._spawn(dead.slot, generation=dead.generation + 1)
        except ServeError:
            return
        with self._lock:
            replay = dict(self._documents)
        try:
            for model_id, document in replay.items():
                replacement.conn.send(("load", model_id, document))
            with self._lock:
                if self._stopping:
                    replacement.conn.send(("stop",))
                    return
                for model_id, document in self._documents.items():
                    if model_id not in replay:
                        replacement.conn.send(("load", model_id, document))
                self._workers[dead.slot] = replacement
                self._restarts += 1
        except OSError:
            replacement.process.terminate()
            return
        _obs_metrics.METRICS.inc("serve.worker.restarts")


# ---------------------------------------------------------------------------
# Inline pool
# ---------------------------------------------------------------------------

class InlineWorkerPool:
    """The pool interface executed synchronously in the calling thread.

    Used by unit tests (determinism, no fork) and by benchmark
    configurations that measure scheduling without process overhead.
    It holds one :class:`_Worker`, the body a process worker runs, and
    completes jobs through the same :func:`_complete`, so a batch gets
    the same answer, counters and engine spans in either pool.  A
    sampled (level-2) batch turns on the process-wide profiling flag
    for its evaluation, here in the serving process itself.
    """

    def __init__(self, documents: dict[str, str]):
        self._worker = _Worker()
        for model_id, document in documents.items():
            self.add_model(model_id, document)
        self._stopping = False
        self._gauges = _pool_gauges(self)
        _obs_metrics.METRICS.add_gauges(self._gauges)

    def alive_count(self) -> int:
        return 0 if self._stopping else 1

    def inflight(self) -> int:
        return 0

    def warmups(self) -> list[int]:
        return [self._worker.warmups]

    def submit(self, job: Job) -> None:
        if self._stopping:
            raise ServeError(E_WORKER, "pool is shutting down")
        _obs_metrics.METRICS.inc("serve.pool.submits")
        try:
            result, extras = self._worker.eval(
                job.model_id, job.matrix, job.params_enc, job.want_spans
            )
        except Exception as exc:  # noqa: BLE001 - mapped to job failure
            _complete(job, None, {}, f"worker 0 error: {type(exc).__name__}: {exc}")
            return
        _complete(job, result, extras)

    def add_model(self, model_id: str, document: str) -> None:
        self._worker.load(model_id, document)

    def wait_warm(self, timeout: float = 30.0) -> bool:
        """Loads are synchronous in-process: always already warm."""
        return True

    def failed_models(self) -> dict[str, str]:
        """Always empty: :meth:`add_model` raises when a load fails."""
        return {}

    def wait_loaded(self, model_ids) -> None:
        """Nothing to wait for: :meth:`add_model` loads synchronously."""

    def inject_crash(self, slot: int) -> None:
        raise RuntimeError("inline pool has no crashable workers")

    def shutdown(self, timeout: float = 10.0) -> None:
        self._stopping = True
        _obs_metrics.METRICS.remove_gauges(self._gauges)
