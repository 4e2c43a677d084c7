"""Golden list of the served metric names.

One in-process served session with training on — a few evals (one of
them a result-cache hit), one bad request and one train op — then the
``metrics_text`` and ``metrics`` ops.  The Prometheus series names and
the JSON key paths read outside the package (the e2e benchmark,
``repro top``, CI, ``bench_serving``) are pinned here: renaming one is a
breaking change for every scraper and dashboard that reads it.
"""

import asyncio
import json
import random
import re

import numpy as np

from repro.core.value import INF
from repro.learning.stdp import STDPRule
from repro.network.compile_plan import evaluate_batch
from repro.neuron.column import Column
from repro.neuron.response import ResponseFunction
from repro.obs.metrics import reset_metrics
from repro.runtime import RESULT_CACHE
from repro.serve.batcher import BatchPolicy
from repro.serve.demo import demo_column
from repro.serve.pool import InlineWorkerPool
from repro.serve.protocol import encode_line, eval_request
from repro.serve.registry import ModelRegistry
from repro.serve.server import run_server_async
from repro.serve.service import TNNService
from repro.train import TrainingPlane

#: Every series name ``metrics_text`` emits for the session below.
PROMETHEUS_SERIES = sorted(
    [
        "repro_cache_result_bytes",
        "repro_cache_result_entries",
        "repro_cache_result_evictions",
        "repro_cache_result_hits",
        "repro_cache_result_misses",
        "repro_evaluate_batch_calls_total",
        "repro_evaluate_batch_volleys_total",
        "repro_plan_compile_calls_total",
        "repro_plan_compile_seconds_total",
        "repro_plan_runs_total",
        "repro_plan_scratch_allocs_total",
        "repro_plan_scratch_bytes_max",
        "repro_plan_warmups_total",
        "repro_result_cache_hit_total",
        "repro_result_cache_miss_total",
        "repro_serve_batch_size_bucket",
        "repro_serve_batch_size_count",
        "repro_serve_batch_size_sum",
        "repro_serve_batched_rows_total",
        "repro_serve_batches_total",
        "repro_serve_latency_seconds_bucket",
        "repro_serve_latency_seconds_count",
        "repro_serve_latency_seconds_sum",
        "repro_serve_ok_total",
        "repro_serve_pending",
        "repro_serve_pool_inflight",
        "repro_serve_pool_submits_total",
        "repro_serve_promotions_total",
        "repro_serve_queue_depth",
        "repro_serve_queue_peak_max",
        "repro_serve_rejected_bad_request_total",
        "repro_serve_requests_total",
        "repro_serve_result_cache_served_total",
        "repro_serve_workers_alive",
        "repro_train_promotions_total",
        "repro_train_queue_accepted_total",
        "repro_train_snapshots_total",
        "repro_train_steps_total",
        "repro_training_applied",
        "repro_training_presented",
        "repro_training_promotions",
        "repro_training_queue_depth",
        "repro_training_queue_dropped",
        "repro_training_snapshots",
    ]
)

#: JSON key paths of the ``metrics`` reply that consumers read.
JSON_PATHS = [
    "metrics.counters.evaluate_batch.calls",
    "metrics.counters.serve.result_cache.served",
    "serve.batch_size.batches",
    "serve.batch_size.buckets",
    "serve.batch_size.mean_size",
    "serve.batch_size.rows",
    "serve.engine",
    "serve.latency.p50_ms",
    "serve.latency.p99_ms",
    "serve.latency_by_outcome",
    "serve.latency_by_stage",
    "serve.max_pending",
    "serve.models",
    "serve.policy",
    "serve.queue_depth",
    "serve.queue_peak",
    "serve.rejected.bad_request",
    "serve.rejected.deadline",
    "serve.rejected.no_such_model",
    "serve.rejected.overloaded",
    "serve.requests",
    "serve.responses_ok",
    "serve.result_cache",
    "serve.retries",
    "serve.rtrace",
    "serve.training",
    "serve.worker_failures",
    "serve.worker_restarts",
    "serve.workers_alive",
]

N_INPUTS = 8


def _column():
    rng = random.Random(0)
    weights = np.array(
        [[rng.randint(1, 3) for _ in range(N_INPUTS)] for _ in range(3)]
    )
    base = ResponseFunction.step(amplitude=1, width=8)
    return Column(weights, threshold=6, base_response=base)


def _make_service():
    reset_metrics()
    RESULT_CACHE.clear()
    registry = ModelRegistry()
    registry.register(demo_column(0, smoke=True)[0], name="demo")
    service = TNNService(
        registry,
        InlineWorkerPool(registry.programs()),
        policy=BatchPolicy(max_batch=8, max_wait_s=0.001),
        result_cache=True,
    )
    plane = TrainingPlane(
        service,
        _column(),
        alias="tiny@live",
        rule=STDPRule(a_plus=1, a_minus=1),
        seed=3,
        snapshot_every=1000,
        model_name="tiny",
    )
    service.training = plane
    plane.start()
    return service


async def _request(reader, writer, message):
    writer.write(encode_line(message))
    await writer.drain()
    return json.loads(await reader.readline())


def _serve(service, session):
    """Run *session(reader, writer)* against *service* behind a live server."""

    async def main():
        ready = asyncio.get_running_loop().create_future()
        server_task = asyncio.ensure_future(
            run_server_async(service, port=0, ready=ready)
        )
        # The ``metrics`` reply can outgrow asyncio's 64 KiB line limit.
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", await ready, limit=16 << 20
        )
        try:
            return await session(reader, writer)
        finally:
            await _request(reader, writer, {"op": "shutdown"})
            writer.close()
            await asyncio.wait_for(server_task, timeout=15)

    return asyncio.run(main())


def _served_session():
    """``(metrics_text reply, metrics reply)`` after the golden session."""
    service = _make_service()

    async def session(reader, writer):
        for req_id, volley in enumerate([(2, INF), (2, INF), (0, 1)]):
            reply = await _request(reader, writer, eval_request(req_id, "demo", volley))
            assert reply["ok"], reply
        bad = await _request(reader, writer, eval_request(9, "demo", (1,)))
        assert bad["code"] == "bad-request", bad
        train = await _request(
            reader,
            writer,
            {"op": "train", "id": 10, "volley": [1] * N_INPUTS, "label": 0},
        )
        assert train["accepted"], train
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 10.0
        while service.training.stats()["presented"] < 1:
            assert loop.time() < deadline, "train op never presented"
            await asyncio.sleep(0.02)
        text = await _request(reader, writer, {"op": "metrics_text"})
        return text, await _request(reader, writer, {"op": "metrics"})

    return _serve(service, session)


def _series_names(text: str) -> list[str]:
    return sorted(
        {
            line.split("{", 1)[0].split(" ", 1)[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
    )


def _has_path(document: dict, path: str) -> bool:
    """Whether dotted *path* resolves; a key may itself contain dots."""
    if not path:
        return True
    if not isinstance(document, dict):
        return False
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        key = ".".join(parts[:cut])
        if key in document and _has_path(document[key], ".".join(parts[cut:])):
            return True
    return False


def test_metric_names_are_pinned():
    text_reply, metrics_reply = _served_session()
    assert text_reply["ok"] and metrics_reply["ok"]
    assert _series_names(text_reply["text"]) == PROMETHEUS_SERIES
    missing = [p for p in JSON_PATHS if not _has_path(metrics_reply, p)]
    assert not missing, missing


def test_sort_kernel_timer_is_pinned():
    """A served column's sorters run as sort kernels timed as ``plan.group.sort``."""
    from repro.obs.metrics import METRICS
    from repro.obs.profile import profiled
    from repro.serve.worker import load_program

    entry = ModelRegistry().register(demo_column(0, smoke=True)[0])
    program = load_program(entry.model_id, entry.program.fingerprint(), entry.program)
    assert program.rank_ids
    reset_metrics()
    with profiled():
        evaluate_batch(program, [(1,) * len(program.input_ids)])
    calls, _ = METRICS.timer("plan.group.sort")
    assert calls >= 1
    assert "repro_plan_group_sort_seconds_total" in _series_names(METRICS.prometheus())
    reset_metrics()


_INF_BUCKET = re.compile(r'^(\w+)_bucket\{(.*?),?le="\+Inf"\} (\S+)$', re.M)
_COUNT = re.compile(r"^(\w+)_count(?:\{(.*)\})? (\S+)$", re.M)


def _inf_and_count(text: str) -> tuple[dict, dict]:
    """``{(metric, labels): value}`` of every ``+Inf`` bucket and ``_count``."""
    inf = {(name, labels): value for name, labels, value in _INF_BUCKET.findall(text)}
    count = {(name, labels): value for name, labels, value in _COUNT.findall(text)}
    return inf, count


def test_prometheus_inf_bucket_equals_count_after_the_window_rolls(monkeypatch):
    """Exposition invariant: ``le="+Inf"`` equals ``_count``, forever.

    One request observed at t, the scrape at t + 120 s — past the
    latency window.  Buckets are lifetime and cumulative, like
    ``_count`` and ``_sum``; only the JSON quantiles are windowed.
    """
    from repro.obs import hist

    clock = [1000.0]
    monkeypatch.setattr(hist, "monotonic", lambda: clock[0])
    reset_metrics()
    registry = ModelRegistry()
    # A model name no other test uses: its series start on this clock.
    registry.register(demo_column(0, smoke=True)[0], name="invariant")
    service = TNNService(
        registry,
        InlineWorkerPool(registry.programs()),
        policy=BatchPolicy(max_batch=8, max_wait_s=0.001),
    )

    async def session(reader, writer):
        reply = await _request(reader, writer, eval_request(1, "invariant", (2, INF)))
        assert reply["ok"], reply
        clock[0] += 120.0
        return (await _request(reader, writer, {"op": "metrics_text"}))["text"]

    inf, count = _inf_and_count(_serve(service, session))
    labels = 'model="invariant",stage="total",outcome="ok"'
    assert ("repro_serve_latency_seconds", labels) in inf
    assert inf == count
