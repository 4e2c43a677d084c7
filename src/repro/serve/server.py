"""The asyncio front-end: a newline-delimited JSON TCP server.

It runs on the service's event loop (``pool.loop``), the one thread
that also batches, dispatches and reads worker replies.  One asyncio
task per connection reads request lines.  Each ``eval`` is submitted,
and the done-callback of its service future, which resolves on this
same thread, writes the answer — so a single connection can pipeline
many requests and receive responses out of order, matched by ``id``
(a reply echoes the ``id`` of a request that carried one).  The
reader drains the connection after each line, so a client that stops
reading its answers is not read either; a closing connection first
waits for the answers still due on it.

Admission rejections (``overloaded``) surface immediately as error
responses rather than queuing — the client sees backpressure the moment
the service is saturated, which is what lets a well-behaved load
generator back off.

``python -m repro serve`` wires this to a :class:`~repro.serve.service.
TNNService` over a seeded demo model (plus any ``--model-file``
networks), installs SIGINT/SIGTERM handlers for graceful drain, and can
write a final metrics snapshot (``--metrics-out``) — the artifact the CI
``serve-smoke`` job uploads.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import signal
from concurrent.futures import Future
from functools import partial
from pathlib import Path
from time import monotonic
from typing import Optional

from ..obs import rtrace as _rtrace
from .protocol import (
    E_BAD_REQUEST,
    E_NO_MODEL,
    PROTOCOL,
    ProtocolError,
    ServeError,
    encode_line,
    error_response,
    ok_response,
    parse_request,
)
from .cli import serve_parser
from .service import TNNService


#: Longest request line the front end frames (asyncio's default limit);
#: a longer one gets a ``bad-request`` reply and the connection closes.
MAX_LINE_BYTES = 2**16


def _finish_eval(
    service: TNNService,
    message: dict,
    writer: asyncio.StreamWriter,
    owed: set[Future],
) -> None:
    """Admit one eval; the done-callback of its future writes the answer.

    An admitted request's future joins *owed* until it resolves, so the
    connection can wait for its answers before it closes.
    """
    deadline_ms = message.get("deadline_ms")
    try:
        future = service.submit(
            message["model"],
            message["volley_times"],
            params=message["params_times"],
            deadline_s=None if deadline_ms is None else deadline_ms / 1e3,
            trace_id=message.get("trace"),
        )
    except ServeError as error:
        writer.write(encode_line(_error_reply(message, error)))
        return
    owed.add(future)
    future.add_done_callback(partial(_answer, writer, message, owed))


def _error_reply(message: dict, error: ServeError) -> dict:
    return error_response(
        message.get("id"), error.code, error.message, trace=message.get("trace")
    )


def _answer(
    writer: asyncio.StreamWriter, message: dict, owed: set[Future], future: Future
) -> None:
    """Write one eval's answer; runs on the loop thread that resolved it."""
    owed.discard(future)
    if writer.is_closing():
        return  # the client went away; nobody is left to answer
    try:
        outputs = future.result()
    except ServeError as error:
        writer.write(encode_line(_error_reply(message, error)))
        return
    # A client-supplied trace id is echoed on every response for this
    # request; server-generated ids stay internal so untraced clients
    # keep their byte-identity contract.  The fingerprint resolved at
    # admission is reported back when the client asked: under hot-swap
    # promotion an alias's meaning moves between admissions, and
    # byte-conformance is only checkable against the version that
    # actually served the request.
    start = monotonic()
    data = encode_line(
        ok_response(
            message.get("id"),
            outputs,
            trace=message.get("trace"),
            model=future.model_id if message.get("want_model_id") else None,
        )
    )
    trace = getattr(future, "rtrace", None)
    if trace is not None:
        # Time the response encode as the trace's final span; the root
        # is stretched to cover it so the recorded trace stays
        # well-formed (the ring holds this same object, so the span is
        # visible there).
        end = monotonic()
        trace.graft("encode", start, end, 0)
        trace.stretch(end)
    writer.write(data)


def _with_id(message: dict, response: dict) -> dict:
    """*response*, echoing the request's ``id`` when it carried one."""
    req_id = message.get("id")
    if req_id is not None:
        response["id"] = req_id
    return response


def _metrics_payload(service: TNNService) -> dict:
    from ..obs.metrics import METRICS

    return {
        "ok": True,
        # The result cache's record is ``serve.result_cache``.
        "serve": service.stats(),
        # Worker processes report into this registry every few batches.
        "metrics": METRICS.snapshot(),
    }


def _metrics_text_payload() -> dict:
    from ..obs.metrics import METRICS, PROMETHEUS_CONTENT_TYPE

    return {
        "ok": True,
        "content_type": PROMETHEUS_CONTENT_TYPE,
        "text": METRICS.prometheus(),
    }


def _handle_train(service: TNNService, message: dict) -> dict:
    """Feed one wire volley to the training plane's queue (non-blocking)."""
    from ..train.ingest import TrainingItem

    req_id = message.get("id")
    plane = service.training
    if plane is None:
        return error_response(
            req_id, E_BAD_REQUEST, "server is not running a training plane"
        )
    volley = message["volley_times"]
    n_inputs = plane.incremental.column.n_inputs
    if len(volley) != n_inputs:
        return error_response(
            req_id,
            E_BAD_REQUEST,
            f"training column takes {n_inputs} lines, got {len(volley)}",
        )
    accepted = plane.ingest(
        TrainingItem(volley=volley, label=message.get("label"))
    )
    return {"id": req_id, "ok": True, "accepted": accepted}


def _handle_lineage(service: TNNService, message: dict) -> dict:
    """The training plane's provenance chain (optionally one model's)."""
    req_id = message.get("id")
    plane = service.training
    if plane is None:
        return error_response(
            req_id, E_BAD_REQUEST, "server is not running a training plane"
        )
    document = plane.lineage.describe()
    target = message.get("model")
    if target is not None:
        try:
            document["records"] = [
                record.to_json() for record in plane.lineage.chain(target)
            ]
        except KeyError as exc:
            return error_response(req_id, E_NO_MODEL, str(exc.args[0]))
    return _with_id(message, {"ok": True, "lineage": document})


def _handle_promote(service: TNNService, message: dict) -> dict:
    """Hot-swap an alias (runs in an executor; the warm barrier blocks)."""
    req_id = message.get("id")
    try:
        summary = service.promote(
            message["alias"],
            message["model"],
            retire=message.get("retire", True),
        )
    except ServeError as error:
        return error_response(req_id, error.code, error.message)
    return {"id": req_id, "ok": True, **summary}


def _handle_model_doc(service: TNNService, message: dict) -> dict:
    """A model's serialized document (live or recently retired)."""
    req_id = message.get("id")
    try:
        fingerprint, document = service.document(message["model"])
    except ServeError as error:
        return error_response(req_id, error.code, error.message)
    return _with_id(
        message, {"ok": True, "model": fingerprint, "document": document}
    )


async def _reply(
    service: TNNService, message: dict, shutdown: asyncio.Event
) -> dict:
    """The reply to any op but ``eval``."""
    op = message["op"]
    if op == "promote":
        # The warm barrier inside promote blocks on worker round-trips;
        # run it off the event loop so concurrent eval traffic keeps
        # flowing through the flip.
        return await asyncio.get_running_loop().run_in_executor(
            None, _handle_promote, service, message
        )
    if op == "train":
        return _handle_train(service, message)
    if op == "lineage":
        return _handle_lineage(service, message)
    if op == "model_doc":
        return _handle_model_doc(service, message)
    if op == "health":
        response = {
            "ok": True,
            "protocol": PROTOCOL,
            "status": "serving",
            "models": len(service.registry),
            "workers_alive": service.pool.alive_count(),
            "pending": service.pending(),
        }
    elif op == "metrics":
        response = _metrics_payload(service)
    elif op == "metrics_text":
        response = _metrics_text_payload()
    elif op == "models":
        response = {
            "ok": True,
            "models": [entry.describe() for entry in service.registry.entries()],
            "aliases": service.registry.aliases(),
        }
    else:  # shutdown
        shutdown.set()
        response = {"ok": True, "status": "shutting-down"}
    return _with_id(message, response)


async def _handle_connection(
    service: TNNService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    shutdown: asyncio.Event,
) -> None:
    owed: set[Future] = set()  # admitted evals whose answers are unwritten
    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # the line overran the stream limit: unframeable
                writer.write(
                    encode_line(
                        error_response(
                            None, E_BAD_REQUEST, f"line exceeds {MAX_LINE_BYTES} bytes"
                        )
                    )
                )
                break
            if not line:
                break
            if not line.strip():
                continue
            try:
                message = parse_request(line)
            except ProtocolError as error:
                writer.write(
                    encode_line(error_response(None, E_BAD_REQUEST, str(error)))
                )
            else:
                if message["op"] == "eval":
                    _finish_eval(service, message, writer, owed)
                else:
                    writer.write(encode_line(await _reply(service, message, shutdown)))
            # Back-pressure: while the client does not read its answers,
            # its next request is not read either.
            await writer.drain()
    except ConnectionResetError:
        pass  # the client went away; nobody is left to answer
    finally:
        if owed:  # answers still due: the connection closes after them
            await asyncio.wait([asyncio.wrap_future(future) for future in owed])
        with contextlib.suppress(Exception):
            writer.close()
            await writer.wait_closed()


async def run_server_async(
    service: TNNService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics_out: Optional[str] = None,
    port_file: Optional[str] = None,
    flight_out: Optional[str] = None,
    lineage_out: Optional[str] = None,
    ready: Optional["asyncio.Future[int]"] = None,
) -> int:
    """Serve until a ``shutdown`` request or SIGINT/SIGTERM; returns 0.

    The sockets are served on ``service.pool.loop``; await this from
    any other loop (the main thread's, under :func:`serve_main`), which
    handles signals and flight dumps, then drains and closes the service.
    *ready* (if given) resolves to the bound port once listening —
    in-process callers (tests, benchmarks) use it instead of polling;
    *port_file* writes the bound port to disk for shell callers using
    ``--port 0``.  *flight_out* is a path prefix: the flight recorder is
    dumped to ``<prefix>.jsonl`` + ``<prefix>.trace.json`` on
    ``SIGUSR2`` and (rate-limited) whenever a trip — worker crash,
    deadline miss, overload burst — is observed.
    """
    loop = asyncio.get_running_loop()
    serving = service.pool.loop
    shutdown = asyncio.Event()  # set on the serving loop

    async def listen() -> None:
        conn_tasks: set[asyncio.Task] = set()

        def _on_connection(r: asyncio.StreamReader, w: asyncio.StreamWriter) -> None:
            task = asyncio.ensure_future(_handle_connection(service, r, w, shutdown))
            conn_tasks.add(task)
            task.add_done_callback(conn_tasks.discard)

        server = await asyncio.start_server(
            _on_connection, host=host, port=port, limit=MAX_LINE_BYTES
        )
        bound_port = server.sockets[0].getsockname()[1]
        if port_file:
            Path(port_file).write_text(f"{bound_port}\n", encoding="utf-8")
        if ready is not None:
            loop.call_soon_threadsafe(
                lambda: ready.done() or ready.set_result(bound_port)
            )
        print(f"serving {len(service.registry)} model(s) on {host}:{bound_port}", flush=True)
        async with server:
            await shutdown.wait()
            server.close()
            await server.wait_closed()
        if conn_tasks:
            # Give open connections a beat to drain on EOF, then cancel
            # stragglers — a client holding its connection open must not
            # wedge shutdown.
            await asyncio.wait(conn_tasks, timeout=1.0)
            for task in list(conn_tasks):
                task.cancel()
            await asyncio.gather(*conn_tasks, return_exceptions=True)

    def _dump_flight(reason: str) -> None:
        if not flight_out:
            return
        try:
            paths = _rtrace.FLIGHT.dump_to(flight_out, reason=reason)
            print(f"flight recorder dumped ({reason}): {paths}", flush=True)
        except OSError as exc:
            print(f"flight dump failed: {exc}", flush=True)

    async def _watch_trips() -> None:
        # File I/O off the serving loop, at most one dump per interval.
        # dump_to itself trips "<reason>": only *foreign* trips count.
        seen = sum(_rtrace.FLIGHT.stats()["trips"].values())
        while True:
            await asyncio.sleep(1.0)
            trips = _rtrace.FLIGHT.stats()["trips"]
            total = sum(trips.values())
            if total > seen:
                reason = max(trips, key=trips.get)
                _dump_flight(f"trip:{reason}")
                seen = sum(_rtrace.FLIGHT.stats()["trips"].values())

    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            loop.add_signal_handler(
                signum, serving.call_soon_threadsafe, shutdown.set
            )
    trip_watcher: Optional[asyncio.Task] = None
    if flight_out:
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            loop.add_signal_handler(
                signal.SIGUSR2, lambda: _dump_flight("sigusr2")
            )
        trip_watcher = asyncio.ensure_future(_watch_trips())
    listening = asyncio.run_coroutine_threadsafe(listen(), serving)
    finished = loop.create_future()
    listening.add_done_callback(
        lambda _listening: loop.call_soon_threadsafe(
            lambda: finished.done() or finished.set_result(None)
        )
    )
    try:
        await finished
    except asyncio.CancelledError:
        listening.cancel()
        raise
    finally:
        if trip_watcher is not None:
            trip_watcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await trip_watcher
    listening.result()
    if service.training is not None:
        # Stop training before draining: a final snapshot folds any
        # queued-but-unapplied volleys in, and the lineage document is
        # complete when written.
        service.training.stop()
        if lineage_out:
            service.training.lineage.save(lineage_out)
            print(f"wrote training lineage to {lineage_out}", flush=True)
    if metrics_out:
        # A warm barrier: each worker's pong carries the counts it has
        # not yet piggybacked, so the snapshot misses no batch.
        service.pool.wait_warm()
        Path(metrics_out).write_text(
            json.dumps(_metrics_payload(service), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote metrics snapshot to {metrics_out}", flush=True)
    service.close(drain=True)
    print("server drained and stopped", flush=True)
    return 0


def build_service(args: argparse.Namespace, *, warm=None) -> TNNService:
    """The service a ``python -m repro serve`` invocation runs.

    *args* comes from :func:`~repro.serve.cli.serve_parser`,
    which gives every option its default.  *warm* is worker 0 when the
    caller already started it (:func:`~repro.serve.worker.
    start_warm_worker`, which ``python -m repro serve`` calls before it
    imports this module); otherwise the process pool forks it here,
    before its loop thread starts.  Every model is then registered
    through :meth:`TNNService.register`: a builder process that a worker
    forks parses it once (a ``--model-file`` from its own text) and
    builds its served program, and the service ships that program to
    the workers as a ``load``, which they only compile and warm; the
    frontend never parses a model (with ``--inline`` it builds
    in-process).  The call returns once every model has been loaded and
    warmed.  If a model does not build or load, or the workers are not
    warm within the pool's ``start_timeout``, the service is closed and
    the error raised.
    """
    from .batcher import BatchPolicy
    from .demo import demo_column
    from .pool import InlineWorkerPool, ProcessWorkerPool
    from .registry import ModelRegistry

    if args.rtrace:
        _rtrace.enable_rtrace(True)
    if args.result_cache_entries:
        from ..runtime import RESULT_CACHE

        RESULT_CACHE.configure(max_entries=args.result_cache_entries)
    if args.inline:
        pool = InlineWorkerPool({})
    else:
        pool = ProcessWorkerPool({}, n_workers=args.workers, warm=warm)
    service = TNNService(
        ModelRegistry(),
        pool,
        policy=BatchPolicy(
            max_batch=args.max_batch, max_wait_s=args.max_wait_ms / 1e3
        ),
        max_pending=args.max_pending,
        default_deadline_s=(
            None if args.deadline_ms is None else args.deadline_ms / 1e3
        ),
        result_cache=not args.no_result_cache,
    )
    # Building a model (in-process with --inline) or serializing one
    # allocates a whole heap at once, and automatic collections would
    # walk it again and again; serve_main collects (and freezes) once,
    # after start-up.
    gc.disable()
    try:
        network, _volley = demo_column(args.model_seed, smoke=args.smoke)
        service.register(network, name="demo")
        for kernel_name in args.kernel or []:
            from ..kernels import demo_network

            service.register(
                demo_network(kernel_name), name=f"kernel:{kernel_name}"
            )
        for path in args.model_file or []:
            service.register(Path(path).read_text(encoding="utf-8"))
        if args.train:
            from ..train import TrainingPlane, classification_scenario

            scenario = classification_scenario(
                smoke=args.smoke, seed=args.train_seed
            )
            plane = TrainingPlane(
                service,
                scenario.column,
                alias=args.train_alias,
                trainer=scenario.make_trainer(),
                probe=scenario.probe,
                snapshot_every=args.snapshot_every,
                model_name=scenario.name,
            )
            service.training = plane
            plane.start()  # bootstraps: registers + aliases the seed column
        pool.wait_loaded(service.registry.ids())
    except BaseException:
        if service.training is not None:
            service.training.stop(final_snapshot=False)
        service.close(drain=False)
        raise
    finally:
        gc.enable()
    return service


def serve_main(argv: Optional[list[str]] = None, *, warm=None) -> int:
    """``python -m repro serve``: build the service, serve until shut down.

    *warm* is an already started worker 0 (see :func:`build_service`).
    """
    args = serve_parser().parse_args(argv)
    service = build_service(args, warm=warm)
    # Model documents, compiled plans, and the service machinery live for
    # the whole process; freezing them keeps full GC passes from scanning
    # the model heap on every allocation-heavy traced burst.
    gc.collect()
    gc.freeze()
    try:
        return asyncio.run(
            run_server_async(
                service,
                host=args.host,
                port=args.port,
                metrics_out=args.metrics_out,
                port_file=args.port_file,
                flight_out=args.flight_out,
                lineage_out=args.lineage_out,
            )
        )
    except KeyboardInterrupt:
        service.close(drain=False)
        return 0
