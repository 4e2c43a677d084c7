"""Asynchronous micro-batching TNN inference service.

The serving layer that turns independent client requests into the large
batches where the compiled engine
(:func:`repro.network.compile_plan.evaluate_batch`) earns its speedup:

* :mod:`repro.serve.batcher` — the micro-batching scheduler: per-model
  open batches closed by a size trigger (``max_batch``) or a latency
  trigger (``max_wait_s``), results split back per request;
* :mod:`repro.serve.pool` — the sharded worker pool: one process per
  worker, started empty and sent each model's served program as a
  ``load`` that compiles and warms it; least-loaded dispatch, crash
  detection and restart;
* :mod:`repro.serve.worker` — what runs in those processes: the warm
  start of worker 0 and the worker body, in which any worker forks the
  other workers, their replacements and one short-lived builder per
  registration (the process that parses a model and builds its program);
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
  newline-delimited-JSON front-end (``python -m repro serve``, whose
  command line is :mod:`repro.serve.cli`) and the
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

The package resolves its public names on first access
(:func:`repro._lazy`), so a worker that imports only
:mod:`repro.serve.worker` does not load the frontend's modules.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy(
    __name__,
    {
        "batcher": ("Batch", "BatchPolicy", "MicroBatcher", "PendingRequest"),
        "pool": ("InlineWorkerPool", "Job", "ProcessWorkerPool"),
        "protocol": (
            "ERROR_CODES", "PROTOCOL", "ProtocolError", "ServeError",
            "canonical", "encode_line", "error_response", "eval_request",
            "ok_response", "parse_request",
        ),
        "registry": ("ModelEntry", "ModelRegistry"),
        "service": ("TNNService", "serve_snapshot"),
    },
)
