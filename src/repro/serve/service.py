"""The inference service core: admission, batching, dispatch, retry.

:class:`TNNService` is the transport-independent heart of ``repro.serve``
— the asyncio front-end (:mod:`repro.serve.server`), the benchmarks and
the conformance harness all drive this one object:

* **admission control** — a bounded count of in-system requests
  (queued + in flight); past ``max_pending`` new work is rejected
  immediately with ``overloaded`` (backpressure, never unbounded
  buffering);
* **micro-batching** — admitted requests join per-``(model, params)``
  open batches (:class:`~repro.serve.batcher.MicroBatcher`); a batch is
  dispatched when it fills, or when its deadline timer fires
  ``max_wait_s`` after it opened;
* **deadlines** — a request may carry a deadline; it is enforced at
  dispatch (expired requests are dropped from the batch and answered
  ``deadline``) and again at completion (a result that arrives late is
  discarded in favor of the ``deadline`` error, so a slow worker can
  never turn into a silently-late answer);
* **bounded retry** — when a worker dies mid-batch the whole batch is
  re-dispatched to another worker, up to ``max_attempts`` total
  attempts, after which every rider fails with ``worker-failure``.
  Evaluation is pure (same volley → same spike times), so a retry can
  never produce a different answer — the served-conformance suite
  asserts byte-identical responses *through* injected crashes.

Batching, dispatch and completion run on the pool's event loop
(``pool.loop``), which the asyncio front-end serves its sockets on.
:meth:`TNNService.submit`, from any thread, admits or rejects at once and
returns a :class:`concurrent.futures.Future` of the decoded output
``Time`` tuple, resolved on the loop thread.  :meth:`TNNService.direct` is the
reference path (one straight ``evaluate_batch``) that served responses
are compared against byte-for-byte.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import threading
from collections import OrderedDict
from concurrent.futures import Future
from time import monotonic
from typing import Mapping, Optional, Sequence

from ..core.value import Time, decode_matrix, encode_time
from ..network import serialize
from ..network.graph import NetworkError
from ..obs import metrics as _obs_metrics
from ..obs import profile as _obs_profile
from ..obs import rtrace as _rtrace
from ..obs.hist import BUCKET_BOUNDS_S
from .batcher import Batch, BatchKey, BatchPolicy, MicroBatcher, PendingRequest
from .protocol import (
    E_BAD_REQUEST,
    E_DEADLINE,
    E_OVERLOADED,
    E_SHUTDOWN,
    E_WORKER,
    ServeError,
    time_to_wire,
)
from ..runtime.result_cache import RESULT_CACHE, volley_digest
from .pool import Job, pack_rows
from .registry import (
    MIN_PREFIX,
    ModelEntry,
    ModelRegistry,
    build_program,
    unpack_document,
)


#: Overload rejections within one second before the flight recorder is
#: tripped with ``overload-burst`` (a lone rejection is backpressure
#: working; a burst is an incident worth a dump).
OVERLOAD_BURST_TRIP = 16

#: Every Nth traced batch also runs the engine under the profiler so its
#: trace carries ``engine.<phase>`` child spans.  Profiled evaluation is
#: the priced path (see ``bench_obs_overhead``); sampling keeps traced
#: serving inside the overhead bound while still attributing engine time
#: to phases on a steady trickle of requests.
PHASE_SAMPLE_EVERY = 8

#: Served request latency, one series per ``(model, stage, outcome)``.
#: Stages: ``total`` (admission to completion), ``queue`` (admission to
#: dispatch), ``service`` (dispatch to completion).  Outcomes: ``ok``
#: plus the failure modes (``deadline``, ``overloaded``,
#: ``worker-failure``), so rejected and deadline-missed requests appear
#: in the reported tail instead of vanishing from it.
LATENCY = _obs_metrics.METRICS.histogram(
    "serve.latency_seconds",
    BUCKET_BOUNDS_S,
    ("model", "stage", "outcome"),
    "Served request latency by model, stage, and outcome.",
)

#: Rows per formed micro-batch, in power-of-two buckets (last is open).
BATCH_BUCKETS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
BATCH_SIZE = _obs_metrics.METRICS.histogram(
    "serve.batch_size", BATCH_BUCKETS, help="Rows per formed micro-batch."
)

STAGES = ("total", "queue", "service")


def _observe_request(
    model: str,
    outcome: str,
    enqueued: float,
    dispatched: Optional[float],
    completed: float,
) -> None:
    """Record every stage of one finished request.

    *dispatched* is ``None`` (or the request's unset ``0.0``) for
    requests that never reached a worker — overload rejections,
    pre-dispatch deadline misses, result-cache hits; those observe
    ``total`` only.
    """
    LATENCY.observe(completed - enqueued, model, "total", outcome)
    if dispatched:
        LATENCY.observe(dispatched - enqueued, model, "queue", outcome)
        LATENCY.observe(completed - dispatched, model, "service", outcome)


def serve_snapshot() -> dict:
    """The ``serve`` section of ``stats``, read from the metrics registry.

    Queue depth and alive workers come from the gauges the live service
    and its pool register (0 without them); the headline ``latency`` is
    the windowed ``total``/``ok`` readout merged across models; batch
    sizes are lifetime counts.
    """
    metrics = _obs_metrics.METRICS
    counter = metrics.counter
    now = monotonic()
    batch = BATCH_SIZE.merged(now=now)
    counts = batch.lifetime_counts()
    buckets = {
        f"le_{bound}": count for bound, count in zip(BATCH_BUCKETS, counts) if count
    }
    if counts[-1]:
        buckets[f"gt_{BATCH_BUCKETS[-1]}"] = counts[-1]
    by_stage = {
        stage: LATENCY.merged(stage=stage, outcome="ok", now=now).snapshot(now=now)
        for stage in STAGES
    }
    by_outcome: dict = {}
    for (model, stage, outcome), snap in LATENCY.snapshot(now=now).items():
        by_outcome.setdefault(model or "_", {}).setdefault(stage, {})[outcome] = snap
    return {
        "queue_depth": metrics.gauge_value("serve.queue_depth") or 0,
        "queue_peak": metrics.maximum("serve.queue.peak"),
        "workers_alive": metrics.gauge_value("serve.workers_alive") or 0,
        "batch_size": {
            "batches": batch.count,
            "rows": int(batch.sum),
            "mean_size": round(batch.sum / batch.count, 3) if batch.count else 0.0,
            "buckets": buckets,
        },
        "latency": by_stage["total"],
        "latency_by_stage": by_stage,
        "latency_by_outcome": by_outcome,
        "requests": counter("serve.requests"),
        "responses_ok": counter("serve.ok"),
        "rejected": {
            "overloaded": counter("serve.rejected.overloaded"),
            "deadline": counter("serve.rejected.deadline"),
            "bad_request": counter("serve.rejected.bad_request"),
            "no_such_model": counter("serve.rejected.no_such_model"),
        },
        "worker_failures": counter("serve.worker.failures"),
        "worker_restarts": counter("serve.worker.restarts"),
        "retries": counter("serve.retries"),
    }


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or ``None`` where the C library lacks it."""
    try:
        import ctypes

        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = (ctypes.c_size_t,)
    trim.restype = ctypes.c_int
    return trim


def _trim_heap() -> None:
    """Return the C heap's free pages to the OS (a no-op without glibc).

    CPython frees a parsed model's objects but keeps the pages they
    lived on; ``malloc_trim(0)`` releases the free ones, so the
    process's resident size drops back to what it still holds.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _params_key(params: Mapping[str, Time]) -> str:
    """Canonical string of a parameter binding (the batch-key component)."""
    if not params:
        return "{}"
    return json.dumps(
        {name: time_to_wire(value) for name, value in sorted(params.items())},
        separators=(",", ":"),
    )


class TNNService:
    """Micro-batched, deadline-aware, retrying TNN inference service."""

    def __init__(
        self,
        registry: ModelRegistry,
        pool,
        *,
        policy: Optional[BatchPolicy] = None,
        max_pending: int = 1024,
        default_deadline_s: Optional[float] = None,
        max_attempts: int = 2,
        result_cache: bool = False,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.registry = registry
        self.pool = pool
        #: Answer repeated ``(fingerprint, volley, params)`` triples
        #: straight from :data:`repro.runtime.RESULT_CACHE`, ahead of
        #: admission.  Off by default because the cache is
        #: process-global: embedded services and unit tests opt in
        #: explicitly; the CLI server arms it (``--no-result-cache`` to
        #: disable).
        self.result_cache_enabled = bool(result_cache)
        self.policy = policy or BatchPolicy()
        self.max_pending = max_pending
        self.default_deadline_s = default_deadline_s
        self.max_attempts = max_attempts
        #: The attached training plane (``repro.train``), if any.  The
        #: server wires one in when launched with ``--train``; its
        #: snapshot rides the ``stats()`` payload under ``"training"``.
        self.training = None
        #: Packed documents (:func:`~repro.serve.registry.pack_document`,
        #: the entry's own bytes) of every model ever registered through
        #: this service, surviving retirement — the ``model_doc`` op
        #: serves from here so a client can still rebuild (and
        #: byte-check against) a version that was hot-swapped away
        #: while its responses were in flight.  Bounded FIFO.
        self._document_archive: "OrderedDict[str, bytes]" = OrderedDict()
        self._archive_limit = 512
        # Models registered before the service existed (the usual CLI
        # bootstrap order) are archived too, so retiring them later
        # still leaves their documents fetchable.
        self._document_archive.update(
            (entry.model_id, entry.packed) for entry in registry.entries()
        )

        self._loop = pool.loop
        #: Guards admission (``_pending``, ``_closed``) and the archive;
        #: the batcher and its timers belong to the loop thread.
        self._lock = threading.Lock()
        self._batcher = MicroBatcher(self.policy)
        self._timers: dict[BatchKey, asyncio.TimerHandle] = {}
        self._pending = 0  # admitted and not yet completed
        self._closed = False
        self._drained = threading.Event()  # closed, and nothing pending
        self._job_ids = itertools.count(1)
        self._req_ids = itertools.count(1)
        self._overload_marks = 0
        self._overload_window_start = 0.0
        self._span_batches = 0  # traced batches seen (phase sampling)
        #: The live gauges this service owns in the metrics registry.
        self._gauges = {
            "serve.queue_depth": lambda: self._pending,
            "serve.pending": self.pending,
        }
        _obs_metrics.METRICS.add_gauges(self._gauges)

    # -- submission -----------------------------------------------------------
    def submit(
        self,
        model: str,
        volley: Sequence[Time],
        *,
        params: Optional[Mapping[str, Time]] = None,
        deadline_s: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> "Future[tuple[Time, ...]]":
        """Admit one volley; the future resolves to its output tuple.

        Raises :class:`ServeError` *synchronously* for admission-time
        rejections (overload, unknown model, malformed volley) and
        resolves the future with a :class:`ServeError` for asynchronous
        ones (deadline, worker failure).

        *trace_id* names the request's span tree when request tracing is
        on (:mod:`repro.obs.rtrace`); with tracing on and no client id,
        the service derives one from its own request counter — which is
        deterministic for a fresh service, so identical runs produce
        identical canonical trace documents.
        """
        _obs_metrics.METRICS.inc("serve.requests")
        entry, encoded = self._validated(model, volley, params)
        params = dict(params or {})
        params_key = _params_key(params)
        now = monotonic()
        digest: Optional[str] = None
        if self.result_cache_enabled:
            # Ahead of admission: a hit never takes a queue slot, never
            # reaches the batcher, never touches the pool.  The key is
            # total over everything that affects the answer (program
            # fingerprint + encoded volley + canonical params), so the
            # cached row is byte-identical to recomputation.
            digest = volley_digest(encoded, params_key)
            cached = RESULT_CACHE.get(entry.model_id, digest)
            if cached is not None:
                return self._resolve_from_cache(entry, cached, trace_id, now)
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        deadline = None if deadline_s is None else now + deadline_s
        request = PendingRequest(
            req_id=next(self._req_ids),
            model_id=entry.model_id,
            encoded=encoded,
            params_key=params_key,
            params=params,
            enqueued=now,
            deadline=deadline,
            model_name=entry.name,
            digest=digest,
        )
        # The resolved fingerprint rides on the future so front-ends can
        # attribute the response to the exact model version that served
        # it — under hot-swap promotion an alias's meaning changes
        # between admissions, and byte-conformance is only well-defined
        # against the fingerprint actually resolved at admission time.
        request.future.model_id = entry.model_id  # type: ignore[attr-defined]
        if _rtrace._ENABLED:
            trace = _rtrace.RequestTrace(
                trace_id or f"t{request.req_id}", model=entry.name, now=now
            )
            trace.push("queue", now)
            request.trace = trace
            # Front-ends add post-resolution spans (response encode)
            # without a side channel: the trace rides on the future.
            request.future.rtrace = trace  # type: ignore[attr-defined]
        with self._lock:
            if self._closed:
                _obs_metrics.METRICS.inc("serve.rejected.shutdown")
                raise ServeError(E_SHUTDOWN, "service is shutting down")
            if self._pending >= self.max_pending:
                _obs_metrics.METRICS.inc("serve.rejected.overloaded")
                _observe_request(entry.name, "overloaded", now, None, now)
                if now - self._overload_window_start > 1.0:
                    self._overload_window_start = now
                    self._overload_marks = 0
                self._overload_marks += 1
                if self._overload_marks == OVERLOAD_BURST_TRIP:
                    _rtrace.FLIGHT.trip("overload-burst")
                if request.trace is not None:
                    request.trace.seal("overloaded", now)
                    _rtrace.FLIGHT.record(request.trace)
                raise ServeError(
                    E_OVERLOADED,
                    f"queue full ({self._pending}/{self.max_pending})",
                )
            self._pending += 1
            _obs_metrics.METRICS.observe_max("serve.queue.peak", self._pending)
        if self._on_loop():
            self._enqueue(request)
        else:
            self._loop.call_soon_threadsafe(self._enqueue, request)
        return request.future

    def _resolve_from_cache(
        self,
        entry: ModelEntry,
        cached: tuple,
        trace_id: Optional[str],
        now: float,
    ) -> "Future[tuple[Time, ...]]":
        """Answer a request straight from the result cache.

        The cached row was produced by a worker evaluation of the same
        ``(fingerprint, encoded volley, params)`` triple, so resolving
        with it is byte-identical to dispatching.  Deadlines are moot —
        the answer is immediate — and the request never counts against
        ``max_pending``.
        """
        _obs_metrics.METRICS.inc("serve.result_cache.served")
        _obs_metrics.METRICS.inc("serve.ok")
        _observe_request(entry.name, "ok", now, None, now)
        future: "Future[tuple[Time, ...]]" = Future()
        future.model_id = entry.model_id  # type: ignore[attr-defined]
        if _rtrace._ENABLED:
            trace = _rtrace.RequestTrace(
                trace_id or f"t{next(self._req_ids)}", model=entry.name, now=now
            )
            trace.push("result-cache", now)
            trace.pop("result-cache", now)
            trace.seal("ok", now)
            _rtrace.FLIGHT.record(trace)
            future.rtrace = trace  # type: ignore[attr-defined]
        future.set_result(cached)
        return future

    def _validated(
        self,
        model: str,
        volley: Sequence[Time],
        params: Optional[Mapping[str, Time]],
    ) -> tuple[ModelEntry, tuple]:
        try:
            entry = self.registry.resolve(model)
        except ServeError:
            _obs_metrics.METRICS.inc("serve.rejected.no_such_model")
            raise
        if len(volley) != entry.input_arity:
            _obs_metrics.METRICS.inc("serve.rejected.bad_request")
            raise ServeError(
                E_BAD_REQUEST,
                f"model {entry.name!r} takes {entry.input_arity} lines, "
                f"got {len(volley)}",
            )
        if (params or entry.param_names) and set(params or {}) != set(
            entry.param_names
        ):
            _obs_metrics.METRICS.inc("serve.rejected.bad_request")
            raise ServeError(
                E_BAD_REQUEST,
                f"model {entry.name!r} params mismatch: need "
                f"{sorted(entry.param_names)}, got {sorted(params or {})}",
            )
        try:
            encoded = tuple(encode_time(value) for value in volley)
            for value in (params or {}).values():
                encode_time(value)
        except (NetworkError, TypeError, ValueError) as exc:
            _obs_metrics.METRICS.inc("serve.rejected.bad_request")
            raise ServeError(E_BAD_REQUEST, str(exc)) from exc
        return entry, encoded

    # -- on the loop: batching and dispatch -----------------------------------
    def _on_loop(self) -> bool:
        try:
            return asyncio.get_running_loop() is self._loop
        except RuntimeError:
            return False

    def _enqueue(self, request: PendingRequest) -> None:
        """Batch an admitted request; arm or cancel its batch's deadline."""
        key = (request.model_id, request.params_key)
        full, opened = self._batcher.add(request)
        if full is not None:
            timer = self._timers.pop(key, None)
            if timer is not None:
                timer.cancel()
            # Next pass: an inline pool answers at once, and a client that
            # resubmits from the answer's callback would recurse.
            self._loop.call_soon(self._dispatch, full)
        elif opened:
            self._timers[key] = self._loop.call_later(
                self.policy.max_wait_s, self._flush, key
            )

    def _flush(self, key: BatchKey) -> None:
        """A batch's deadline: dispatch it as full as it got."""
        del self._timers[key]
        self._dispatch(self._batcher.close(key))

    def _dispatch(self, batch: Batch) -> None:
        now = monotonic()
        live: list[PendingRequest] = []
        for request in batch.requests:
            if request.expired(now):
                self._reject_deadline(request)
            else:
                live.append(request)
        if not live:
            return
        batch.requests = live
        if batch.attempts == 0:
            BATCH_SIZE.observe(len(live))
            _obs_metrics.METRICS.inc("serve.batches")
            _obs_metrics.METRICS.inc("serve.batched_rows", len(live))
        batch.attempts += 1
        want_spans = 0
        attempt_no, n_live = batch.attempts, len(live)
        for request in live:
            request.dispatched = now
            if request.trace is not None:
                want_spans = 1
                request.trace.pop("queue", now)
                request.trace.push(
                    "attempt", now, {"attempt": attempt_no, "batch": n_live}
                )
        if want_spans:
            # Engine wall time (two clock reads in the worker) is cheap
            # enough for every traced batch; the per-phase breakdown runs
            # the engine under the profiler, so it is sampled.
            self._span_batches += 1
            if self._span_batches % PHASE_SAMPLE_EVERY == 1:
                want_spans = 2
        params_enc = {
            name: encode_time(value) for name, value in live[0].params.items()
        }
        job = Job(
            job_id=next(self._job_ids),
            model_id=batch.model_id,
            volleys=pack_rows(request.encoded for request in live),
            rows=len(live),
            params_enc=params_enc,
            on_done=lambda result, b=batch: self._on_done(b, result),
            on_fail=lambda reason, b=batch: self._on_fail(b, reason),
            want_spans=want_spans,
            on_extras=lambda extras, b=batch: self._on_extras(b, extras),
        )
        try:
            with _obs_profile.phase("serve.dispatch"):
                self.pool.submit(job)
        except ServeError as error:
            self._on_fail(batch, error.message)

    # -- completion paths -----------------------------------------------------
    # Every admitted request releases exactly one admission slot, on
    # exactly one of three paths: a result (_on_done), a deadline
    # rejection (_reject_deadline), or a terminal worker failure
    # (_on_fail after the retry budget).  A retried batch releases
    # nothing until its final attempt resolves.

    def _on_extras(self, batch: Batch, extras: dict) -> None:
        """Stash the worker's timing payload for the completion callback."""
        batch.extras = extras

    def _close_attempt(
        self,
        request: PendingRequest,
        batch: Batch,
        now: float,
        attrs: Optional[dict] = None,
    ) -> None:
        """Close the open ``attempt`` span, grafting worker engine timings.

        The worker reports *durations* (its clock domain is not ours);
        the engine span is anchored to end at completion, so it is
        duration-accurate and placement-approximate.
        """
        trace = request.trace
        attempt_id = trace.pop("attempt", now, attrs or None)
        eval_s = (batch.extras or {}).get("eval_s")
        if not eval_s or attempt_id is None:
            return
        start = max(now - eval_s, trace.span_start(attempt_id))
        engine = trace.graft("engine", start, now, attempt_id)
        cursor = start
        for name, seconds in (batch.extras.get("phases") or {}).items():
            phase_end = min(cursor + seconds, now)
            trace.graft(f"engine.{name}", cursor, phase_end, engine)
            cursor = phase_end

    def _finish_trace(
        self,
        request: PendingRequest,
        outcome: str,
        now: float,
        attrs: Optional[dict] = None,
    ) -> None:
        """Finish and flight-record the request's trace, if it has one."""
        trace = request.trace
        if trace is None:
            return
        trace.seal(outcome, now, attrs)
        _rtrace.FLIGHT.record(trace)

    def _on_done(self, batch: Batch, result: list[list[int]]) -> None:
        now = monotonic()
        rows = decode_matrix(result)
        completed = 0
        for request, row in zip(batch.requests, rows):
            if request.expired(now):
                if request.trace is not None:
                    self._close_attempt(request, batch, now)
                self._reject_deadline(request)
                continue
            _observe_request(
                request.model_name, "ok", request.enqueued, request.dispatched, now
            )
            if request.trace is not None:
                self._close_attempt(request, batch, now)
                self._finish_trace(request, "ok", now)
            result = tuple(row)
            if request.digest is not None:
                # Store before resolving: a client that resubmits the
                # moment its future fires already sees the hit.
                RESULT_CACHE.put(request.model_id, request.digest, result)
                if request.model_id not in self.registry:
                    # The model was retired (hot-swap promotion) while
                    # this request was in flight; the row must not
                    # outlive the promotion's cache purge.  Put-then-
                    # check keeps the window closed from both sides.
                    RESULT_CACHE.evict_fingerprint(request.model_id)
            request.future.set_result(result)
            completed += 1
        _obs_metrics.METRICS.inc("serve.ok", completed)
        self._release(completed)

    def _on_fail(self, batch: Batch, reason: str) -> None:
        now = monotonic()
        if batch.attempts < self.max_attempts and not self._closed:
            _obs_metrics.METRICS.inc("serve.retries")
            for request in batch.requests:
                if request.trace is not None:
                    request.trace.pop("attempt", now, {"error": reason})
                    # The retry re-enters the batch wait; its spans join
                    # this same trace (one trace id, two attempts).
                    request.trace.push("queue", now)
            self._loop.call_soon_threadsafe(self._dispatch, batch)
            return
        _rtrace.FLIGHT.trip("worker-failure")
        for request in batch.requests:
            _observe_request(
                request.model_name,
                "worker-failure",
                request.enqueued,
                request.dispatched,
                now,
            )
            if request.trace is not None:
                request.trace.pop("attempt", now, {"error": reason})
                self._finish_trace(
                    request, "worker-failure", now, {"error": reason}
                )
            request.future.set_exception(
                ServeError(
                    E_WORKER,
                    f"batch failed after {batch.attempts} attempt(s): {reason}",
                )
            )
        self._release(len(batch.requests))

    def _reject_deadline(self, request: PendingRequest) -> None:
        now = monotonic()
        _obs_metrics.METRICS.inc("serve.rejected.deadline")
        _observe_request(
            request.model_name, "deadline", request.enqueued, request.dispatched, now
        )
        _rtrace.FLIGHT.trip("deadline-miss")
        self._finish_trace(request, "deadline", now)
        request.future.set_exception(
            ServeError(E_DEADLINE, f"request {request.req_id} missed its deadline")
        )
        self._release(1)

    def _release(self, n: int) -> None:
        """Release *n* admission slots (requests left the system)."""
        if n == 0:
            return
        with self._lock:
            self._pending -= n
            if self._closed and not self._pending:
                self._drained.set()

    # -- reference path and introspection -------------------------------------
    def direct(
        self,
        model: str,
        volleys: Sequence[Sequence[Time]],
        *,
        params: Optional[Mapping[str, Time]] = None,
    ) -> list[tuple[Time, ...]]:
        """One straight ``evaluate_batch`` on the registered network.

        This is the conformance oracle: a served response is correct
        exactly when its canonical encoding is byte-identical to this
        result's.  The network is rebuilt from the model's document on
        every call and not kept, so the registry holds no network.

        It shares code with the served path: the same
        :func:`~repro.network.serialize.loads` parses the document, the
        same ``lower`` lowers it and the same compiled ``evaluate_batch``
        engine runs it, so a fault there reads as agreement.  It skips
        sorter grouping, the IR passes, pickling, the pool and batching.
        """
        from ..network.compile_plan import evaluate_batch

        network = serialize.loads(self.registry.resolve(model).document)
        matrix = evaluate_batch(network, [tuple(v) for v in volleys], params=params)
        return [tuple(row) for row in decode_matrix(matrix)]

    def pending(self) -> int:
        """Requests admitted and not yet completed (queued + in flight)."""
        with self._lock:
            return self._pending

    def stats(self) -> dict:
        """Live serving snapshot: :func:`serve_snapshot` plus this service's config."""
        snapshot = serve_snapshot()
        snapshot["models"] = len(self.registry)
        snapshot["max_pending"] = self.max_pending
        snapshot["policy"] = {
            "max_batch": self.policy.max_batch,
            "max_wait_ms": self.policy.max_wait_s * 1e3,
        }
        # One engine serves: the compiled batch engine, under its
        # long-standing label (dashboards and benchmark reports read it).
        snapshot["engine"] = "int64"
        warmups = getattr(self.pool, "warmups", None)
        if warmups is not None:
            per_worker = warmups()
            snapshot["warmups"] = {
                "per_worker": per_worker,
                "total": sum(per_worker),
            }
        snapshot["result_cache"] = {
            "enabled": self.result_cache_enabled,
            **RESULT_CACHE.info(),
        }
        snapshot["promotions"] = _obs_metrics.METRICS.counter("serve.promotions")
        if self.training is not None:
            snapshot["training"] = self.training.stats()
        snapshot["rtrace"] = {
            "enabled": _rtrace.rtrace_enabled(),
            "flight": _rtrace.FLIGHT.stats(),
        }
        return snapshot

    # -- lifecycle ------------------------------------------------------------
    def register(self, model, *, name: Optional[str] = None) -> ModelEntry:
        """Register a model and ship it to the worker pool.

        *model* is a :class:`~repro.network.graph.Network` or a
        serialized document (see :meth:`ModelRegistry.register`); the
        pool's ``build`` builds its program (a process pool's in a
        builder process).  The archive keeps the entry's packed
        document.  Once a new model's program is shipped, the C heap's
        free pages go back to the OS (:func:`_trim_heap`): reading,
        serializing or (in-process) building a model freed a heap of the
        document's size, which the process would otherwise keep.
        """
        before = set(self.registry.ids())
        entry = self.registry.register(
            model, name=name, build=getattr(self.pool, "build", build_program)
        )
        with self._lock:
            self._document_archive[entry.model_id] = entry.packed
            while len(self._document_archive) > self._archive_limit:
                self._document_archive.popitem(last=False)
        if entry.model_id not in before:
            self.pool.add_model(entry.model_id, entry.program, entry.payload)
            _trim_heap()
        return entry

    def document(self, key: str) -> tuple[str, str]:
        """``(fingerprint, serialized document)`` for *key*.

        Resolves live models through the registry; retired fingerprints
        (hot-swapped away) fall back to the bounded archive, by full
        fingerprint or unambiguous prefix.  Raises
        :class:`ServeError` (``no-such-model``) when neither knows it.
        """
        try:
            entry = self.registry.resolve(key)
            return entry.model_id, entry.document
        except ServeError:
            with self._lock:
                archive = self._document_archive
                if key in archive:
                    hits = [key]
                else:
                    hits = [
                        fp
                        for fp in archive
                        if len(key) >= MIN_PREFIX and fp.startswith(key)
                    ]
                if len(hits) != 1:
                    raise
                packed = archive[hits[0]]
            return hits[0], unpack_document(packed)

    def promote(self, alias: str, key: str, *, retire: bool = True) -> dict:
        """Hot-swap *alias* to the model *key* resolves to — zero downtime.

        The ordering is load-bearing:

        1. resolve the target — it must already be registered (and
           therefore shipped to the pool by :meth:`register`);
        2. **warm barrier** — wait until every alive worker has drained
           its load backlog (:meth:`~repro.serve.pool.ProcessWorkerPool.
           wait_warm`), so the first admission routed to the new
           fingerprint never pays load or JIT cost.  A target a
           worker failed to load is refused (:class:`ServeError`,
           ``worker-failure``) and the alias is left where it was;
        3. **atomic flip** — :meth:`ModelRegistry.promote` repoints the
           alias under the registry lock: admissions before the flip
           resolved the old entry and complete on it (they hold the
           entry reference and workers keep its program loaded);
           admissions after resolve the new one;
        4. **retire** — unless ``retire=False``, the superseded
           fingerprint goes through :meth:`retire`.  A caller that must
           publish something naming the new model first (the training
           plane's lineage head) passes ``retire=False`` and calls
           :meth:`retire` itself once it has.

        Returns a summary dict (``alias``, ``model``, ``previous``,
        ``warmed``, ``retired``).
        """
        entry = self.registry.resolve(key)
        wait_warm = getattr(self.pool, "wait_warm", None)
        warmed = bool(wait_warm()) if wait_warm is not None else True
        failed = getattr(self.pool, "failed_models", dict)()
        if entry.model_id in failed:
            raise ServeError(
                E_WORKER,
                f"model {entry.model_id[:12]} did not load: {failed[entry.model_id]}",
            )
        previous, current = self.registry.promote(alias, entry.model_id)
        _obs_metrics.METRICS.inc("serve.promotions")
        retired = self.retire(previous) if retire else None
        return {
            "alias": alias,
            "model": current,
            "previous": previous,
            "warmed": warmed,
            "retired": retired,
        }

    def retire(self, model_id: Optional[str]) -> Optional[str]:
        """Remove *model_id* unless an alias still references it.

        Its memoized result rows are purged from the result cache with
        it, so a retired model can never be served stale.  Returns
        *model_id* when it was removed, else ``None``.
        """
        if model_id is None or model_id in self.registry.aliases().values():
            return None
        self.registry.remove(model_id)
        return model_id

    def close(self, *, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop admission, drain (or fail) queued work, stop the pool; off the loop."""
        if self._on_loop():
            raise RuntimeError("TNNService.close() would block its own event loop")
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not self._pending:
                self._drained.set()
        if drain:
            self._drained.wait(timeout)
        else:
            asyncio.run_coroutine_threadsafe(
                self._fail_queued(), self._loop
            ).result(timeout)
        self.pool.shutdown(timeout=timeout)
        _obs_metrics.METRICS.remove_gauges(self._gauges)

    async def _fail_queued(self) -> None:
        """Answer every request still in an open batch ``shutting-down``."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for batch in self._batcher.drain():
            for request in batch.requests:
                request.future.set_exception(ServeError(E_SHUTDOWN, "service closed"))
            self._release(len(batch.requests))
