"""Micro-batching scheduler: coalesce single-volley requests into batches.

The compiled engine (:func:`repro.network.compile_plan.evaluate_batch`)
earns its 85–366× speedup over per-volley evaluation (B=1024,
``BENCH_engine.json``) only when it is handed *batches* — but service
clients send independent single-volley requests.  The micro-batcher sits
between the two: concurrent requests for the same ``(model, params)``
accumulate in an **open batch**, which closes (becomes dispatchable) as
soon as either

* it reaches ``max_batch`` rows (the size trigger), or
* its oldest request has waited ``max_wait_s`` (the latency trigger).

``max_wait_s`` is the knob that trades tail latency for throughput:
``0`` degenerates to per-request dispatch, a few milliseconds buys large
batches under load while adding at most those milliseconds to an idle
request.  Only requests with an **identical parameter binding** share a
batch — ``evaluate_batch`` binds parameters per call, so a batch is
well-formed exactly when its key (model fingerprint, canonical params)
is uniform.

This module is a pure scheduling data structure: no threads, no clock,
no I/O.  That makes the policy deterministic and unit-testable;
:class:`repro.serve.service.TNNService` owns the latency trigger, one
event-loop timer per open batch that closes it ``max_wait_s`` after it
opened.  Correctness of
the split/merge rests on ``evaluate_batch`` being batch-invariant —
evaluating a concatenation of volleys equals concatenating per-volley
evaluations — a property the test suite pins with Hypothesis
(``tests/serve/test_batch_invariance.py``).
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Optional

#: Batch key: (model fingerprint, canonical parameter binding).
BatchKey = tuple[str, str]


@dataclass(frozen=True)
class BatchPolicy:
    """The coalescing policy: size and latency triggers.

    ``max_batch=1`` is per-request dispatch (the baseline every serving
    benchmark compares against); ``max_wait_s`` bounds how long an
    under-full batch may hold its oldest request.
    """

    max_batch: int = 64
    max_wait_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")


@dataclass
class PendingRequest:
    """One admitted request waiting for (or riding in) a batch."""

    req_id: int
    model_id: str
    #: The volley encoded to int64 at admission (validation already
    #: pays for the conversion, so dispatch stacks these rows as is).
    encoded: tuple
    params_key: str
    params: dict
    enqueued: float
    deadline: Optional[float]  # absolute monotonic time, or None
    future: Future = field(default_factory=Future)
    #: Display name of the target model (latency-histogram label).
    model_name: str = ""
    #: When the request was last handed to a worker (0.0 = never
    #: dispatched); stage-latency attribution reads it at completion.
    dispatched: float = 0.0
    #: Result-cache key (canonical volley digest) when the service has
    #: the cache armed; ``None`` disables store-on-completion.
    digest: Optional[str] = None
    #: The request's span tree when request tracing is enabled
    #: (:mod:`repro.obs.rtrace`); ``None`` costs the disabled path
    #: nothing.  A crash-retried batch re-dispatches these same request
    #: objects, so both attempts' spans land in one trace.
    trace: "object | None" = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


@dataclass
class Batch:
    """A closed (dispatchable) or open (accumulating) request group.

    ``attempts`` counts dispatch attempts — the service increments it on
    worker failure and re-dispatches the whole batch (bounded retry).
    """

    key: BatchKey
    requests: list[PendingRequest]
    attempts: int = 0
    #: Worker-reported timing payload for the latest attempt (engine
    #: wall clock + phase attribution), delivered just before the
    #: completion callback; ``None`` when the executing pool sent none.
    extras: "dict | None" = None

    @property
    def model_id(self) -> str:
        return self.key[0]

    @property
    def size(self) -> int:
        return len(self.requests)


class MicroBatcher:
    """Accumulates requests into per-key open batches under a policy.

    Not thread-safe by design — the owning service touches it only from
    its event loop's thread.
    """

    def __init__(self, policy: BatchPolicy):
        self.policy = policy
        self._open: dict[BatchKey, Batch] = {}

    def add(self, request: PendingRequest) -> tuple[Optional[Batch], bool]:
        """Enqueue one request.

        Returns ``(full, opened)``: *full* is the batch if this request
        filled it (now closed and no longer tracked here), and *opened*
        says whether the request started a fresh open batch — the two
        events that arm or cancel a batch's deadline timer.
        """
        key = (request.model_id, request.params_key)
        batch = self._open.get(key)
        opened = batch is None
        if opened:
            batch = Batch(key=key, requests=[])
            self._open[key] = batch
        batch.requests.append(request)
        if batch.size >= self.policy.max_batch:
            del self._open[key]
            return batch, opened
        return None, opened

    def close(self, key: BatchKey) -> Batch:
        """Close and return the open batch under *key* (its deadline came)."""
        return self._open.pop(key)

    def drain(self) -> list[Batch]:
        """Close and return every open batch (shutdown path)."""
        ready = list(self._open.values())
        self._open.clear()
        return ready
