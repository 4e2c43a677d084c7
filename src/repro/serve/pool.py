"""Sharded worker pool: one compiled-and-warmed batch engine per process.

Each worker is a separate OS process that starts with no models.  Every
model reaches it as a ``load`` message carrying the model's served
program — built once per registration, in a builder process
(:meth:`ProcessWorkerPool.build`), pickled there, and unpickled once by
the frontend — sent as the same bytes when a model is registered and
when a replacement worker is brought up to date.
:func:`~repro.serve.worker.load_program` unpickles it, verifies the
program fingerprint the message names, and **warms** the compiled plan,
so the first real request never pays compilation or first-touch cost; a
worker never parses, lowers or optimizes.  Eval messages are answered by
the batch engine (:func:`~repro.network.compile_plan.evaluate_batch`).
Both loading and evaluating live in one worker body,
:class:`~repro.serve.worker._Worker`, which both pools run.

**Worker lifecycle.**  The frontend forks one process, worker 0 — the
warm worker (:mod:`repro.serve.worker`) — before it starts a thread;
``python -m repro serve`` forks it before it even imports this module.
Worker 0 imports the engine and the build path once, and every other
process the pool needs is forked by it, on request over its pipe: the
other workers (its **siblings**), their replacements, and one
short-lived **builder** per registration.  Each request carries the new
process's pipe end (``send_handle``).  So the frontend never holds a
model's parse heap, and never forks once its thread runs; when worker 0
itself dies, its replacement is started with ``spawn``.

Only the evaluating side imports NumPy and the engine: this module does
not, and :class:`~repro.serve.worker._Worker` imports them on first use.
A batch crosses the pipe as raw int64 bytes: the micro-batcher's
encoded rows, packed row after row by :func:`pack_rows`, plus the row
count; the worker views them as a ``(B, n_inputs)`` array, and its
reply is the engine's ``(B, n_outputs)`` result as bytes, which
:func:`unpack_rows` turns back into rows of encoded ints in the
frontend.

Every pool owns the frontend's one thread, an asyncio event loop
started by :func:`start_loop` (``pool.loop``): the service arms its
batch deadlines there, the server runs its sockets there, and a process
pool reads its worker pipes there (``loop.add_reader``), so a reply
completes its batch on the thread that dispatched it.

Dispatch is **least-loaded**: :meth:`ProcessWorkerPool.submit` picks the
alive worker with the fewest in-flight batches.  A broken pipe (crash,
kill, OOM) reads as end-of-file on the loop; the dead worker's in-flight
batches are failed back to the service (which retries them on another
worker), and a replacement is started in its place, up to
``max_restarts`` times, which takes work once it reports ready.
:meth:`ProcessWorkerPool.inject_crash` makes a worker die on command —
the fault-injection hook the served-conformance tests use to prove
byte-identical responses survive crashes.

:class:`InlineWorkerPool` is the same interface executed synchronously
in-process — no IPC, no fork — used by unit tests and by benchmark
configurations that isolate scheduling cost from process cost.  It
builds programs in-process and calls the same worker body directly,
with the registry's own :class:`~repro.ir.program.Program` objects, so
a sampled batch there sets the process-wide profiling flag in the
serving process itself.

Both pools count into the frontend's one metrics registry: a process
worker's counts arrive every
:data:`~repro.serve.worker._METRICS_PIGGYBACK_EVERY`-th reply, so they
may lag by up to 15 batches per worker (and a crash loses them).
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import pickle
import select
import selectors
import signal
import threading
from array import array
from collections.abc import Iterable, Sequence
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain
from multiprocessing.reduction import send_handle
from time import monotonic, sleep
from typing import Callable, Optional

from ..ir.program import Program
from ..obs import metrics as _obs_metrics
from ..obs import rtrace as _rtrace
from . import worker as _worker
from .protocol import E_WORKER, ServeError
from .registry import Built, build_program


def _pool_gauges(pool) -> dict:
    """The live gauges a pool owns in the metrics registry."""
    return {
        "serve.workers_alive": pool.alive_count,
        "serve.pool.inflight": pool.inflight,
    }


class _Selector(selectors.DefaultSelector):
    """The default selector, waking on time: epoll rounds a wait up to whole ms."""

    def select(self, timeout=None):
        if timeout:
            # The selector's descriptor turns readable once any of its
            # registered ones is ready; select() waits to the microsecond.
            select.select([self.fileno()], [], [], timeout)
        return super().select(0 if timeout else timeout)


def start_loop() -> "tuple[asyncio.AbstractEventLoop, Callable[[float], None]]":
    """Start the frontend's one thread, an asyncio event loop: ``(loop, stop)``.

    ``stop(timeout)``, called from another thread, ends the loop as
    :func:`asyncio.run` ends one (what is still pending is cancelled)
    and joins its thread.
    """
    loop = asyncio.SelectorEventLoop(_Selector())
    stopped = loop.create_future()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(stopped)
        left = asyncio.all_tasks(loop)
        for task in left:
            task.cancel()
        loop.run_until_complete(asyncio.gather(*left, return_exceptions=True))
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()

    thread = threading.Thread(target=run, name="serve-loop", daemon=True)
    thread.start()

    def stop(timeout: float) -> None:
        loop.call_soon_threadsafe(stopped.set_result, None)
        thread.join(timeout)

    return loop, stop


def pack_rows(rows: Iterable[Sequence[int]]) -> bytes:
    """Encoded volley rows as one eval payload: their int64 cells, row after row."""
    return array("q", chain.from_iterable(rows)).tobytes()


def unpack_rows(data: bytes, rows: int) -> list[list[int]]:
    """An eval reply (``rows`` rows of int64 bytes) as lists of encoded ints.

    ``memoryview.cast`` refuses a zero in its shape, so a program with
    no outputs, whose reply is empty, gets its empty rows here.
    """
    if not data:
        return [[] for _ in range(rows)]
    return memoryview(data).cast("q", [rows, len(data) // (8 * rows)]).tolist()


@dataclass
class Job:
    """One dispatched batch: encoded inputs plus completion callbacks.

    ``volleys`` is the batch's :func:`pack_rows` payload and ``rows``
    its row count (a program with no inputs sends no bytes).
    ``on_done`` receives the ``(B, n_outputs)`` result as rows of
    encoded ints (:func:`unpack_rows`); ``on_fail`` receives a
    human-readable reason.  Exactly one of the two is invoked, by
    :func:`_complete`: on the pool's loop thread in a process pool, on
    the submitting thread in an inline pool.

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
    volleys: bytes
    rows: int
    params_enc: dict[str, int]
    on_done: Callable[[list[list[int]]], None]
    on_fail: Callable[[str], None]
    want_spans: int = 0
    on_extras: "Callable[[dict], None] | None" = None


def _complete(job: Job, result, extras: dict, failure: "str | None" = None) -> None:
    """Finish *job* the one way both pools do.

    On success: ``on_extras`` (when there are extras), then ``on_done``
    with the *result* bytes unpacked (:func:`unpack_rows`).  On
    *failure*: count ``serve.worker.failures``, then ``on_fail``.
    """
    if failure is not None:
        _obs_metrics.METRICS.inc("serve.worker.failures")
        job.on_fail(failure)
        return
    if extras and job.on_extras is not None:
        job.on_extras(extras)
    job.on_done(unpack_rows(result, job.rows))


# ---------------------------------------------------------------------------
# Process pool
# ---------------------------------------------------------------------------

@dataclass
class _WorkerHandle:
    slot: int
    conn: "mp_connection.Connection"
    generation: int
    #: Worker 0's process, the frontend's one child; ``None`` for a
    #: sibling, which worker 0 forked.
    process: "Optional[mp.process.BaseProcess]" = None
    #: A sibling's end of its pipe, held until worker 0 is asked to fork
    #: the sibling on it.
    peer: "Optional[mp_connection.Connection]" = None
    #: The process id the worker reported with ``ready``.
    pid: Optional[int] = None
    #: Reported ready and was sent every live model: takes work.
    alive: bool = False
    #: Set once the worker reported ready or died, whichever came first.
    started: threading.Event = field(default_factory=threading.Event)
    jobs: dict[int, Job] = field(default_factory=dict)
    #: Plan warm-ups the worker has reported (one per loaded model).
    warmups: int = 0

    @property
    def inflight(self) -> int:
        return len(self.jobs)


def _await_eof(conn, timeout: float) -> bool:
    """Read *conn* until end-of-file; ``False`` if it stays open *timeout* s."""
    deadline = monotonic() + timeout
    while conn.poll(max(0.0, deadline - monotonic())):
        try:
            conn.recv_bytes()
        except (EOFError, OSError):
            return True
    return False


def _sibling(slot: int, generation: int) -> _WorkerHandle:
    """A sibling's handle; worker 0 forks the process once asked."""
    ours, theirs = mp.Pipe(duplex=True)
    return _WorkerHandle(slot=slot, conn=ours, generation=generation, peer=theirs)


def _hand_over(warm: _WorkerHandle, op: str, peer) -> None:
    """Ask worker 0 to fork a process (*op*: ``fork`` or ``build``) on *peer*."""
    warm.conn.send((op,))
    send_handle(warm.conn, peer.fileno(), warm.pid)


class ProcessWorkerPool:
    """Multiprocessing workers with least-loaded dispatch and restarts.

    Worker 0 is *warm* (``(process, conn)`` from
    :func:`~repro.serve.worker.start_warm_worker`, which
    ``python -m repro serve`` calls before it imports the serving
    stack), or is forked here, before the pool's loop thread starts.
    Worker 0 forks the other ``n_workers - 1`` once it reports ready.
    *programs* (``model_id -> served program``,
    :meth:`~repro.serve.registry.ModelRegistry.programs`) are then
    shipped to every worker as ``load`` messages, and the constructor
    returns once every worker holds them (:meth:`wait_loaded`), or as
    soon as every worker reported ready when there are none.  A server
    passes no programs, registers its models afterwards (each built by
    :meth:`build`) and then calls :meth:`wait_loaded` itself.  Replies
    are read on :attr:`loop`, where job callbacks run; the methods that
    wait are called from any other thread.
    """

    def __init__(
        self,
        programs: dict[str, Program],
        *,
        n_workers: int = 2,
        max_restarts: int = 8,
        start_timeout: float = 60.0,
        warm=None,
    ):
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        #: ``model_id -> (program fingerprint, pickled program)`` of every
        #: model a replacement worker must be sent (a program that fails
        #: to load is dropped).
        self._programs: dict[str, tuple[str, bytes]] = {}
        #: ``model_id -> reason`` of every model a worker failed to load.
        self._failed: dict[str, str] = {}
        self._max_restarts = max_restarts
        self.start_timeout = start_timeout
        self._lock = threading.Lock()
        self._stopping = False
        #: Every first worker reported ready; a sibling that dies before
        #: ready is replaced from then on (worker 0 may have died with
        #: its fork request).
        self._serving = False
        self._restarts = 0
        self._ping_tokens = itertools.count(1)
        #: Outstanding warm-barrier pings: token -> (worker, event).
        self._pongs: dict[int, tuple[_WorkerHandle, threading.Event]] = {}
        process, conn = warm if warm is not None else _worker.start_warm_worker()
        self._workers: list[_WorkerHandle] = [
            _WorkerHandle(slot=0, conn=conn, generation=0, process=process),
            *(_sibling(slot, 0) for slot in range(1, n_workers)),
        ]
        self.loop, self._stop_loop = start_loop()
        for worker in self._workers:
            self.loop.call_soon_threadsafe(
                self.loop.add_reader, worker.conn.fileno(), self._on_readable, worker
            )
        self._gauges = _pool_gauges(self)
        _obs_metrics.METRICS.add_gauges(self._gauges)
        for worker in self._workers:
            if not worker.started.wait(self.start_timeout):
                problem = "did not become ready in time"
            elif not worker.alive:
                problem = "exited before ready"
            else:
                continue
            self.shutdown()
            raise ServeError(E_WORKER, f"worker {worker.slot} {problem}")
        self._serving = True
        for model_id, program in programs.items():
            self.add_model(model_id, program)
        if not programs:
            # Nothing to wait for: a worker that reported ready imports
            # the engine while the caller registers its models.
            return
        try:
            self.wait_loaded(programs)
        except ServeError:
            self.shutdown()
            raise

    # -- lifecycle ------------------------------------------------------------
    def _request_forks(self) -> None:
        """Ask worker 0 for every sibling not yet forked (lock held).

        A send fails only if worker 0 died already; its end-of-file
        brings a replacement, whose ``ready`` asks again.
        """
        for worker in self._workers:
            if worker.peer is not None:
                try:
                    _hand_over(self._workers[0], "fork", worker.peer)
                except OSError:
                    return
                worker.peer.close()
                worker.peer = None

    def build(self, packed: bytes) -> Built:
        """Build a model's served program in a builder process.

        *packed* is the model's packed document
        (:func:`~repro.serve.registry.pack_document`).  Worker 0 forks
        the builder on a fresh pipe, which this end then writes the
        document to; the builder runs
        :func:`~repro.serve.registry.build_program` and answers with the
        pickled program, unpickled here once, its bytes kept as the
        :attr:`~repro.serve.registry.Built.payload` every worker is
        sent.  What the build raised is re-raised here; a builder that
        dies, or no reply within ``start_timeout`` (which includes
        waiting for a replaced worker 0), is a :class:`ServeError`.
        """
        deadline = monotonic() + self.start_timeout
        ours, theirs = mp.Pipe(duplex=True)
        try:
            while True:
                with self._lock:
                    if self._stopping:
                        raise ServeError(E_WORKER, "pool is shutting down")
                    warm = self._workers[0]
                    if warm.alive:
                        with suppress(OSError):
                            _hand_over(warm, "build", theirs)
                            break
                if monotonic() >= deadline:
                    raise ServeError(
                        E_WORKER, f"worker 0 was not up within {self.start_timeout:g}s"
                    )
                sleep(0.01)
            theirs.close()
            ours.send_bytes(packed)
            if not ours.poll(max(0.0, deadline - monotonic())):
                raise ServeError(
                    E_WORKER, f"model builder did not answer in {self.start_timeout:g}s"
                )
            reply = ours.recv()
        except (EOFError, OSError) as exc:
            raise ServeError(
                E_WORKER, f"model builder exited without a reply ({type(exc).__name__})"
            ) from None
        finally:
            ours.close()
            theirs.close()
        if reply[0] == "failed":
            raise reply[1]
        _op, model_id, name, nodes, payload = reply
        return Built(model_id, name, nodes, pickle.loads(payload), payload)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the loop thread and every worker."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        _obs_metrics.METRICS.remove_gauges(self._gauges)
        # Once the loop has stopped no replacement can be installed, so
        # the worker list read below is final.
        self._stop_loop(timeout)
        for worker in self._workers:
            if not worker.conn.closed:
                with suppress(OSError):
                    worker.conn.send(("stop",))
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(timeout=timeout)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=1.0)
            elif not worker.conn.closed and not _await_eof(worker.conn, timeout):
                # Worker 0's child: its pipe closes when it exits.
                if worker.pid is not None:
                    with suppress(ProcessLookupError):
                        os.kill(worker.pid, signal.SIGKILL)
            worker.conn.close()
            if worker.peer is not None:
                worker.peer.close()

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
                        job.volleys,
                        job.rows,
                        job.params_enc,
                        job.want_spans,
                    )
                )
            except (OSError, BrokenPipeError):
                # The pipe died under us; its end-of-file reaps the
                # worker, but this job must fail over immediately.
                del worker.jobs[job.job_id]
                worker.alive = False
                raise ServeError(E_WORKER, "worker pipe broken on submit")
        _obs_metrics.METRICS.inc("serve.pool.submits")

    def add_model(
        self, model_id: str, program: Program, payload: Optional[bytes] = None
    ) -> None:
        """Ship a newly registered model's program to every alive worker.

        *payload* is the program pickled, as its builder sent it
        (:attr:`~repro.serve.registry.ModelEntry.payload`); without one
        the program is pickled here.  Every worker, and every
        replacement later, is sent the same bytes.
        """
        if payload is None:
            payload = pickle.dumps(program, pickle.HIGHEST_PROTOCOL)
        load = (program.fingerprint(), payload)
        with self._lock:
            self._programs[model_id] = load
            self._failed.pop(model_id, None)
            for worker in self._workers:
                if worker.alive:
                    try:
                        worker.conn.send(("load", model_id, *load))
                    except (OSError, BrokenPipeError):
                        worker.alive = False

    def wait_warm(self, timeout: float = 30.0) -> bool:
        """Barrier: every alive worker has drained its message backlog.

        Worker pipes are FIFO, so a ``pong`` proves the worker already
        processed every ``load`` sent before the ping — newly shipped
        programs are verified and engine-warmed — and every eval:
        the pong carries the worker's unreported counts, which the
        loop absorbs before it releases the barrier.  The hot-swap
        promotion path calls this *before* flipping an alias, so the
        first admission routed to the new fingerprint never pays
        load cost and can never race an unloaded model.  Returns
        ``False`` on timeout.  A worker that dies mid-barrier releases
        it: its replacement is sent every program before it can receive
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

    # -- on the loop: replies, crashes, replacements --------------------------
    def _on_readable(self, worker: _WorkerHandle) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._reap(worker)
            return
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
            # Replacements are not sent a program that does not load.
            _op, model_id, reason = message
            with self._lock:
                self._programs.pop(model_id, None)
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
        elif op == "ready":
            # Every model's load is queued ahead of any eval the worker
            # will be sent, so it serves nothing it has not loaded.  A
            # send fails only if it died already; its end-of-file reaps it.
            with suppress(OSError), self._lock:
                worker.pid = message[1]
                for model_id, load in self._programs.items():
                    worker.conn.send(("load", model_id, *load))
                worker.alive = True
                if worker.slot == 0:
                    self._request_forks()
            worker.started.set()

    def _reap(self, worker: _WorkerHandle) -> None:
        """A worker pipe broke: fail its jobs over, then start a replacement.

        Worker 0 is replaced by a ``spawn`` (this process runs threads
        and forks no more); a sibling by asking worker 0 to fork one,
        at once or, while worker 0 is down, once its replacement is
        ready.  A worker that never came up is not replaced, unless it
        is a sibling of a pool that finished starting: worker 0 died
        with its fork request.
        """
        self.loop.remove_reader(worker.conn.fileno())
        came_up = worker.started.is_set() or (worker.slot and self._serving)
        worker.started.set()
        with self._lock:
            worker.alive = False
            orphans = list(worker.jobs.values())
            worker.jobs.clear()
            # Release warm-barrier waiters pinned on the dead worker: its
            # replacement is sent every program before any eval.
            for token in [
                t for t, (w, _) in self._pongs.items() if w is worker
            ]:
                self._pongs.pop(token)[1].set()
            worker.conn.close()
            can_restart = (
                came_up and not self._stopping and self._restarts < self._max_restarts
            )
        _obs_metrics.METRICS.inc("serve.worker.failures", len(orphans))
        _rtrace.FLIGHT.trip("worker-crash")
        for job in orphans:
            job.on_fail(f"worker {worker.slot} crashed")
        if can_restart:
            generation = worker.generation + 1
            if worker.slot == 0:
                process, conn = _worker.start_warm_worker("spawn", generation=generation)
                replacement = _WorkerHandle(
                    slot=0, conn=conn, generation=generation, process=process
                )
            else:
                replacement = _sibling(worker.slot, generation)
            with self._lock:
                self._workers[worker.slot] = replacement
                self._restarts += 1
                if self._workers[0].alive:
                    self._request_forks()
            self.loop.add_reader(
                replacement.conn.fileno(), self._on_readable, replacement
            )
            _obs_metrics.METRICS.inc("serve.worker.restarts")


# ---------------------------------------------------------------------------
# Inline pool
# ---------------------------------------------------------------------------

class InlineWorkerPool:
    """The pool interface executed synchronously in the calling thread.

    Used by unit tests (determinism, no fork) and by benchmark
    configurations that measure scheduling without process overhead.
    It builds programs in-process (:attr:`build` is
    :func:`~repro.serve.registry.build_program`) and holds one
    :class:`~repro.serve.worker._Worker`, the body a process worker
    runs, and completes jobs through the same :func:`_complete`, so a
    batch gets the same answer, counters and engine spans in either
    pool.  A
    sampled (level-2) batch turns on the process-wide profiling flag
    for its evaluation, here in the serving process itself.  Its
    :attr:`loop` is where a service over it dispatches and completes.
    """

    build = staticmethod(build_program)

    def __init__(self, programs: dict[str, Program]):
        self._worker = _worker._Worker()
        for model_id, program in programs.items():
            self.add_model(model_id, program)
        self._stopping = False
        self.loop, self._stop_loop = start_loop()
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
                job.model_id, job.volleys, job.rows, job.params_enc, job.want_spans
            )
        except Exception as exc:  # noqa: BLE001 - mapped to job failure
            _complete(job, None, {}, f"worker 0 error: {type(exc).__name__}: {exc}")
            return
        _complete(job, result, extras)

    def add_model(
        self, model_id: str, program: Program, payload: Optional[bytes] = None
    ) -> None:
        self._worker.load(model_id, program.fingerprint(), program)

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
        if self._stopping:
            return
        self._stopping = True
        _obs_metrics.METRICS.remove_gauges(self._gauges)
        self._stop_loop(timeout)
