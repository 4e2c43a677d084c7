"""Serving throughput: micro-batching policies vs offered load.

The serving claim mirrors the engine's batching claim one layer up: the
compiled engine is 85–366× faster *per volley* at B=1024 than one call
per volley (``bench_engine.py``, ``BENCH_engine.json``), so a service
that coalesces concurrent requests into batches should beat per-request
dispatch by an order of magnitude at saturation.  This
report measures it: a windowed open-loop client (a fixed number of
outstanding requests, each completion immediately launching the next)
drives a live :class:`~repro.serve.service.TNNService` (real worker
processes, real IPC) across the policy grid

* ``max_batch`` ∈ {1, 32, 256} — 1 is per-request dispatch, the
  baseline every serving system implicitly compares against;
* ``workers`` ∈ {1, 4} — the sharding axis.

Each cell reports sustained throughput (req/s), p50/p99 latency, and
the batch sizes the micro-batcher actually formed.  Every response is
checked against a direct ``evaluate_batch`` of the same volley stream —
a throughput number from wrong answers would be worthless.

Acceptance (full mode): at saturation, the best batched policy must
clear **10×** the per-request policy's throughput at the same worker
count.  Results land in ``BENCH_serving.json`` at the repo root.

Run standalone::

    python benchmarks/bench_serving.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import random
import threading
import time
from pathlib import Path

from repro.obs.metrics import reset_metrics
from repro.serve.batcher import BatchPolicy
from repro.serve.demo import demo_column, demo_volleys
from repro.serve.pool import ProcessWorkerPool
from repro.serve.registry import ModelRegistry
from repro.serve.service import TNNService

from artifact_env import main, write_artifact

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: Policy grid: (max_batch, workers).
FULL_GRID = [(1, 1), (32, 1), (256, 1), (1, 4), (32, 4), (256, 4)]
SMOKE_GRID = [(1, 1), (32, 1)]

#: Outstanding requests kept in flight (the offered load at saturation).
#: Windowed open loop rather than one thread per client: completions
#: launch the next request from their callback, so the measurement isn't
#: throttled by hundreds of client threads contending for the GIL.
FULL_CONCURRENCY = 160
SMOKE_CONCURRENCY = 8

#: The acceptance bound: batched vs per-request at the same workers.
MIN_BATCHING_SPEEDUP = 10.0

#: Synapses on the full-mode column.  The CLI demo column is deliberately
#: tiny; a serving benchmark on it would measure fixed Python overhead on
#: both paths.  A wider column makes the per-request engine call carry
#: real work — the thing micro-batching amortizes.
FULL_COLUMN_INPUTS = 10


def _bench_column(n_inputs: int, seed: int = 0):
    """A seeded SRM0 column with *n_inputs* synapses (demo recipe, wider)."""
    from repro.neuron.response import ResponseFunction
    from repro.neuron.srm0 import SRM0Neuron
    from repro.neuron.srm0_network import build_srm0_network

    rng = random.Random(seed)
    base = ResponseFunction.piecewise_linear(amplitude=2, rise=1, fall=3)
    weights = [rng.randint(1, 3) for _ in range(n_inputs)]
    neuron = SRM0Neuron.homogeneous(
        n_inputs, weights, base_response=base, threshold=3
    )
    return build_srm0_network(neuron, name=f"bench-col-{n_inputs}in-seed{seed}")


def _run_config(
    network,
    *,
    max_batch: int,
    workers: int,
    requests: int,
    concurrency: int,
) -> dict:
    """One grid cell: closed-loop clients against a fresh service."""
    # The metrics registry is process-global; each cell reports only its
    # own batches.
    reset_metrics()
    registry = ModelRegistry()
    registry.register(network, name="bench")
    pool = ProcessWorkerPool(registry.programs(), n_workers=workers)
    service = TNNService(
        registry,
        pool,
        policy=BatchPolicy(
            max_batch=max_batch,
            # Per-request dispatch shouldn't wait for riders it will
            # never take; batched policies get a short coalescing window.
            max_wait_s=0.0 if max_batch == 1 else 0.002,
        ),
        max_pending=max(1024, concurrency * 4),
    )
    arity = len(network.input_ids)
    volleys = demo_volleys(arity, requests, seed=0)
    expected = service.direct("bench", volleys)

    try:
        # Warm the path end to end before timing.
        for volley in volleys[: min(8, requests)]:
            service.submit("bench", volley).result(timeout=60)

        latencies = [0.0] * requests
        wrong = [0]
        cursor = [0]
        completed = [0]
        lock = threading.Lock()
        finished = threading.Event()

        def launch() -> None:
            with lock:
                if cursor[0] >= requests:
                    return
                i = cursor[0]
                cursor[0] += 1
            start = time.perf_counter()
            future = service.submit("bench", volleys[i])

            def on_complete(f, i=i, start=start) -> None:
                latencies[i] = time.perf_counter() - start
                with lock:
                    if f.result() != expected[i]:
                        wrong[0] += 1
                    completed[0] += 1
                    done = completed[0] >= requests
                if done:
                    finished.set()
                else:
                    launch()

            future.add_done_callback(on_complete)

        started = time.perf_counter()
        for _ in range(min(concurrency, requests)):
            launch()
        if not finished.wait(timeout=600):
            raise RuntimeError("benchmark cell timed out")
        elapsed = time.perf_counter() - started

        stats = service.stats()
    finally:
        service.close()

    ordered = sorted(latencies)
    return {
        "engine": stats.get("engine"),
        "max_batch": max_batch,
        "workers": workers,
        "requests": requests,
        "concurrency": concurrency,
        "wrong_answers": wrong[0],
        "elapsed_s": round(elapsed, 4),
        "throughput_rps": round(requests / elapsed, 1),
        "p50_ms": round(ordered[len(ordered) // 2] * 1e3, 3),
        "p99_ms": round(
            ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))] * 1e3, 3
        ),
        "mean_batch_size": stats["batch_size"]["mean_size"],
        "batches_formed": stats["batch_size"]["batches"],
    }


def run(*, smoke: bool = False, requests: int | None = None) -> dict:
    grid = SMOKE_GRID if smoke else FULL_GRID
    concurrency = SMOKE_CONCURRENCY if smoke else FULL_CONCURRENCY
    requests = requests or (120 if smoke else 8000)
    if smoke:
        network, _ = demo_column(0, smoke=True)
    else:
        network = _bench_column(FULL_COLUMN_INPUTS)

    cells = []
    for max_batch, workers in grid:
        cells.append(
            _run_config(
                network,
                max_batch=max_batch,
                workers=workers,
                requests=requests,
                concurrency=concurrency,
            )
        )

    speedups = {}
    for workers in sorted({w for _, w in grid}):
        at_w = [c for c in cells if c["workers"] == workers]
        base = next((c for c in at_w if c["max_batch"] == 1), None)
        best = max(at_w, key=lambda c: c["throughput_rps"])
        if base is not None and base["throughput_rps"] > 0:
            speedups[str(workers)] = round(
                best["throughput_rps"] / base["throughput_rps"], 2
            )
    return {
        "benchmark": "bench_serving",
        "smoke": smoke,
        "engine": cells[0].get("engine") if cells else None,
        "model": network.name,
        "nodes": len(network.nodes),
        "concurrency": concurrency,
        "min_batching_speedup": MIN_BATCHING_SPEEDUP,
        "cells": cells,
        "batching_speedup_by_workers": speedups,
    }


def report(*, smoke: bool = False, artifact_path=ARTIFACT) -> tuple[str, bool]:
    data = run(smoke=smoke)
    artifact_path = write_artifact(artifact_path, data)

    ok = True
    lines = [
        f"Serving throughput — {data['concurrency']} requests in flight "
        f"(windowed open loop), {data['model']} ({data['nodes']} nodes), "
        f"{data['engine']} engine",
        f"{'batch':>6} {'workers':>8} {'req/s':>9} {'p50':>9} {'p99':>9} "
        f"{'mean-B':>7} {'wrong':>6}",
    ]
    for cell in data["cells"]:
        lines.append(
            f"{cell['max_batch']:>6} {cell['workers']:>8} "
            f"{cell['throughput_rps']:>9.0f} {cell['p50_ms']:>7.2f}ms "
            f"{cell['p99_ms']:>7.2f}ms {cell['mean_batch_size']:>7.1f} "
            f"{cell['wrong_answers']:>6}"
        )
        if cell["wrong_answers"]:
            ok = False
            lines.append("  FAIL: served answers diverged from direct evaluation")
    for workers, speedup in data["batching_speedup_by_workers"].items():
        lines.append(
            f"\nbatching speedup at {workers} worker(s): {speedup:.1f}× "
            f"over per-request dispatch"
        )
        if not smoke and speedup < MIN_BATCHING_SPEEDUP:
            ok = False
            lines.append(
                f"  FAIL: below the {MIN_BATCHING_SPEEDUP:.0f}× acceptance bound"
            )
    lines.append(f"\nartifact: {artifact_path}")
    lines.append(
        "\nshape: per-request dispatch pays one IPC round-trip and one B=1 "
        "engine call per request; micro-batching amortizes both across the "
        "whole coalesced batch, so throughput scales with the batch the "
        "wait window can form."
    )
    return "\n".join(lines), ok


if __name__ == "__main__":
    raise SystemExit(main(report, ARTIFACT, __doc__))
