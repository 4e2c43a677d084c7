"""Asynchronous micro-batching TNN inference service.

The serving layer that turns independent client requests into the large
batches where the compiled engine
(:func:`repro.network.compile_plan.evaluate_batch`) earns its speedup:

* :mod:`repro.serve.batcher` — the micro-batching scheduler: per-model
  open batches closed by a size trigger (``max_batch``) or a latency
  trigger (``max_wait_s``), results split back per request;
* :mod:`repro.serve.pool` — the sharded worker pool: one process per
  worker, each loading the IR-optimized program and warming its
  compiled plan at startup, least-loaded dispatch, crash detection and
  restart;
* :mod:`repro.serve.service` — the service core: fingerprint-keyed
  model registry, bounded-queue admission control with backpressure
  rejection, per-request deadlines, bounded retry on worker failure;
  it records its latency and batch-size histograms and registers its
  queue/worker gauges in :data:`repro.obs.metrics.METRICS`, and
  :func:`~repro.serve.service.serve_snapshot` reads them back as the
  ``serve`` section of ``python -m repro stats --json`` and the
  server's ``metrics`` op (``metrics_text`` renders the same registry
  in Prometheus text format);
* :mod:`repro.serve.server` / :mod:`repro.serve.loadgen` — the asyncio
  newline-delimited-JSON front-end (``python -m repro serve``) and the
  conformance-checking load generator (``python -m repro loadgen``);
* :mod:`repro.serve.protocol` — the wire format (``∞`` is ``null``) and
  the canonical response encoding the byte-identity contract is stated
  over;
* :mod:`repro.serve.top` — ``python -m repro top``, a live terminal
  dashboard polling a running server's ``metrics`` op.

Request-scoped observability lives in :mod:`repro.obs.rtrace`: with
tracing enabled every request carries a span tree (admission → batch
wait → dispatch attempts → engine → response encode) under one trace id
— client-supplied via the wire ``trace`` field or derived from the
request counter — and finished traces land in the bounded flight
recorder, dumped on worker crashes, deadline misses, overload bursts,
or ``SIGUSR2``.

The conformance contract: every served response is byte-identical to a
direct ``evaluate_batch`` of the same volleys — including under injected
worker crashes and deadline faults (:mod:`repro.testing.served`).
"""

from .batcher import Batch, BatchPolicy, MicroBatcher, PendingRequest
from .pool import InlineWorkerPool, Job, ProcessWorkerPool
from .protocol import (
    ERROR_CODES,
    PROTOCOL,
    ProtocolError,
    ServeError,
    canonical,
    encode_line,
    error_response,
    eval_request,
    ok_response,
    parse_request,
)
from .registry import ModelEntry, ModelRegistry
from .service import TNNService, serve_snapshot

__all__ = [
    "Batch",
    "BatchPolicy",
    "ERROR_CODES",
    "InlineWorkerPool",
    "Job",
    "MicroBatcher",
    "ModelEntry",
    "ModelRegistry",
    "PROTOCOL",
    "PendingRequest",
    "ProcessWorkerPool",
    "ProtocolError",
    "ServeError",
    "TNNService",
    "canonical",
    "encode_line",
    "error_response",
    "eval_request",
    "ok_response",
    "parse_request",
    "serve_snapshot",
]
