"""The worker processes: the warm worker, the workers it forks, the builders.

Everything here runs outside the frontend.  ``python -m repro serve``
forks **worker 0**, the warm worker (:func:`start_warm_worker`), right
after it parses its arguments: before it imports the serving stack and
before any thread starts.  The registry (the parser and the program IR)
is imported before that fork; worker 0 then imports the batch engine
(and with it NumPy) and the IR passes the build path needs
(:func:`repro.serve.registry.build_program`: ``group_sorters``,
``optimize_program``) once, freezes that import heap, and serves.
Every worker forks, on request over its pipe, what the pool needs:

* a **worker** (``("fork",)``), new or the replacement of a dead one;
* a short-lived **builder** per registration (``("build",)``), which
  reads a packed model document from its pipe, builds the served
  program, writes ``("built", model_id, name, nodes, pickled program)``
  or ``("failed", exception)`` back, and exits.

Each request is followed on the pipe by the new process's pipe end
(``send_handle``; the duplex pipe is a socketpair).  Workers and
builders are forked from a single-threaded process whose engine and
build path are already imported and frozen, so they share those pages
and start without importing anything.  Every worker inherits worker 0's
ignored ``SIGCHLD``, so the kernel reaps the children it forks.

The frontend forks nothing else: when no worker is alive, the pool
starts a replacement with the ``spawn`` start method, which pays the
imports once.  Worker 0 pins OpenBLAS to one thread before it imports
NumPy (the engine never calls BLAS), so no worker has a thread of its
own when it forks.
"""

from __future__ import annotations

import gc

# Imported before worker 0 forks, so every worker and builder shares the
# frontend's initialised OpenSSL instead of each initialising its own.
import hashlib  # noqa: F401
import multiprocessing as mp
import os
import pickle
import signal
import traceback
from contextlib import nullcontext
from multiprocessing.connection import Connection
from multiprocessing.reduction import recv_handle
from time import perf_counter
from typing import TYPE_CHECKING, Callable

from ..core.value import Time, decode_time
from ..obs import metrics as _obs_metrics
from ..obs import profile as _profile

# The registry, and with it the parser and the program IR, is imported
# before worker 0 forks: the frontend and worker 0 both need them.
from .registry import build_program

if TYPE_CHECKING:
    from ..network.graph import Network

#: A worker piggybacks what it counted since its last report on every
#: Nth eval reply (every reply would double the IPC payload for
#: slow-moving counters).
_METRICS_PIGGYBACK_EVERY = 16


def load_program(model_id: str, fingerprint: str, program: "Network | bytes") -> "Network":
    """Make one served program ready to evaluate.

    *program* is the registry's served program
    (:attr:`~repro.serve.registry.ModelEntry.program`), pickled by a
    process pool or the object itself in-process.  Unpickle it, verify
    that its fingerprint is *fingerprint* (:class:`ValueError`
    otherwise; unpickling re-derives the fingerprint from the node
    table), and warm the compiled plan.  :meth:`_Worker.load` is its
    one caller.
    """
    from ..network.compile_plan import compile_plan

    if isinstance(program, bytes):
        program = pickle.loads(program)
    if program.fingerprint() != fingerprint:
        raise ValueError(
            f"program fingerprint {program.fingerprint()[:12]} of model "
            f"{model_id[:12]} does not match {fingerprint[:12]}"
        )
    compile_plan(program).warm()
    return program


def _decode_params(params_enc: dict[str, int]) -> dict[str, Time]:
    """Sentinel-encoded parameter binding back to ``Time`` values."""
    return {name: decode_time(value) for name, value in params_enc.items()}


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

    A process worker (:func:`_worker_main`) and
    :class:`~repro.serve.pool.InlineWorkerPool` each hold one and call it
    the same way, so where a batch runs cannot change its answer, its
    counters or its trace.
    """

    def __init__(self) -> None:
        self.programs: dict[str, Network] = {}
        #: Plan warm-ups so far (one per loaded model).
        self.warmups = 0

    def load(self, model_id: str, fingerprint: str, program) -> int:
        """Load *model_id* through :func:`load_program`; the new warm-up count."""
        self.programs[model_id] = load_program(model_id, fingerprint, program)
        self.warmups += 1
        return self.warmups

    def eval(
        self,
        model_id: str,
        volleys: bytes,
        rows: int,
        params_enc: dict,
        want_spans: int,
    ) -> tuple[bytes, dict]:
        """Evaluate one batch: ``(result bytes, timing extras)``.

        *volleys* holds *rows* encoded volleys
        (:func:`~repro.serve.pool.pack_rows`); the result is the engine's
        ``(rows, n_outputs)`` int64 matrix as bytes.  The extras are
        empty at *want_spans* 0, ``{"eval_s": …}`` at level 1 (two clock
        reads), and add ``"phases"`` at level 2, when the engine runs
        under :func:`~repro.obs.profile.profiled`.  That flag is
        process-wide: in-process, another thread's profiled phases that
        overlap the batch land in its deltas too.
        """
        import numpy as np

        from ..network.compile_plan import evaluate_batch

        program = self.programs.get(model_id)
        if program is None:
            raise KeyError(f"model {model_id[:12]} not loaded")
        matrix = np.frombuffer(volleys, dtype=np.int64).reshape(
            rows, len(program.input_ids)
        )
        before = _phase_totals() if want_spans >= 2 else None
        started = perf_counter()
        with _profile.profiled() if before is not None else nullcontext():
            result = evaluate_batch(program, matrix, params=_decode_params(params_enc))
        result = result.tobytes()
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


def _worker_main(conn) -> None:
    """The worker process: a :class:`_Worker` behind a pipe.

    Runs in a child process (or, for unit tests, a plain thread with the
    other pipe end held by the test).  It reports ready with no models,
    imports the batch engine (and with it NumPy; a no-op in a forked
    worker, which has it imported) and freezes the import heap
    (``gc.freeze()``), so the first ``load``'s collection does not walk
    it.  Then it serves messages in order, so every model a ``load``
    brings is warmed before any eval behind it on the pipe runs.
    Automatic collections are off during a load, which allocates a whole
    program and its plan at once and would otherwise be walked by
    collection after collection; the load ends in one full collection
    and ``gc.freeze()``: the compiled programs and warmed plans are
    immortal, and frozen objects keep steady-state eval batches from
    paying collections that walk the model heap.
    Messages:

    * ``("eval", job_id, model_id, volleys, rows, params_enc, want_spans)``
      → ``("ok", job_id, result, extras)`` (*volleys* and *result* are
      int64 bytes, see :meth:`_Worker.eval`) or
      ``("err", job_id, reason, extras)``.  The *extras* dict carries
      :meth:`_Worker.eval`'s engine timings and, every
      :data:`_METRICS_PIGGYBACK_EVERY` replies, what the worker counted
      since its last report (:func:`~repro.obs.metrics.snapshot_delta`,
      first against its start; a snapshot takes no inherited lock);
    * ``("load", model_id, program_fingerprint, program)`` →
      ``("loaded", model_id, warmups)``, or ``("load-failed", model_id,
      reason)`` when the pickled program does not unpickle or its
      fingerprint is not *program_fingerprint* (the worker keeps serving
      its other models);
    * ``("ping", token)`` → ``("pong", token, delta)``: every pong
      reports what the worker counted since its last report, so after a
      warm barrier the parent registry holds every count of every batch
      sent before it
    * ``("fork",)`` and ``("build",)``, each followed by a pipe end:
      fork a worker or a builder on it, no reply
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
    # Import the engine, and NumPy with it, while the frontend registers.
    from ..network.compile_plan import evaluate_batch  # noqa: F401

    gc.freeze()
    replies = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        op = message[0]
        if op == "eval":
            _op, job_id, model_id, volleys, rows, params_enc, want_spans = message
            try:
                result, extras = worker.eval(
                    model_id, volleys, rows, params_enc, want_spans
                )
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
                warmups = worker.load(model_id, message[2], message[3])
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                conn.send(("load-failed", model_id, f"{type(exc).__name__}: {exc}"))
            else:
                conn.send(("loaded", model_id, warmups))
            # The program is unpickled: do not hold its bytes until the
            # next message.
            del message
            gc.collect()
            gc.freeze()
            gc.enable()
        elif op == "ping":
            conn.send(("pong", message[1], unreported()))
        elif op == "fork":
            _fork(conn, recv_handle(conn), _worker_main)
        elif op == "build":
            _fork(conn, recv_handle(conn), _builder_main)
        elif op == "crash":
            os._exit(3)
        elif op == "stop":
            conn.close()
            return
        else:
            conn.send(("err", None, f"unknown op {op!r}", {}))


def _fork(conn: Connection, fd: int, body: Callable[[Connection], None]) -> None:
    """Fork a child that runs *body* on the pipe end *fd*, then exits.

    The child closes its copy of this worker's own pipe first, so the
    frontend sees this worker's end-of-file when this worker dies.
    """
    if os.fork() == 0:
        code = 1
        try:
            conn.close()
            body(Connection(fd))
            code = 0
        except BaseException:  # noqa: BLE001 - the exit code reports it
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(fd)


def _builder_main(conn: Connection) -> None:
    """A builder: build the served program of the packed document on *conn*.

    Replies ``("built", model_id, name, nodes, pickled program)`` or
    ``("failed", exception)`` — the exception the build raised, so a
    malformed document fails its registration with its own type and
    text — and returns; the process then exits.  Collections stay off:
    the process lives for one build.
    """
    gc.disable()
    packed = conn.recv_bytes()
    try:
        built = build_program(packed)
    except Exception as exc:  # noqa: BLE001 - sent back to the frontend
        try:
            conn.send(("failed", exc))
        except Exception:  # noqa: BLE001 - the exception does not pickle
            conn.send(("failed", RuntimeError(f"{type(exc).__name__}: {exc}")))
        return
    payload = pickle.dumps(built.program, pickle.HIGHEST_PROTOCOL)
    conn.send(("built", built.model_id, built.name, built.nodes, payload))


def _warm_main(conn) -> None:
    """Worker 0, or a spawned one: import the IR passes and the engine, then serve.

    Runs as :func:`_worker_main`, after importing what the builders it
    forks need.  OpenBLAS would start a thread pool at NumPy's import;
    the engine never calls BLAS, and a worker that forks must have no
    other thread.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    from ..ir import passes, sorters  # noqa: F401

    _worker_main(conn)


def start_warm_worker(method: str = "fork", slot: int = 0, generation: int = 0):
    """Start worker *slot*: ``(process, conn)``, *conn* the frontend's pipe end.

    ``python -m repro serve`` calls this before it imports the serving
    stack or starts a thread (``"fork"``, where the platform has it);
    a pool with no live worker spawns a replacement (``"spawn"``).
    """
    if method not in mp.get_all_start_methods():
        method = "spawn"
    ctx = mp.get_context(method)
    ours, theirs = ctx.Pipe(duplex=True)
    process = ctx.Process(
        target=_warm_main,
        args=(theirs,),
        name=f"serve-worker-{slot}.{generation}",
        daemon=True,
    )
    process.start()
    theirs.close()
    return process, ours
