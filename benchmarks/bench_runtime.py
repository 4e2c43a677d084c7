"""Result-cache hot path: a served hit vs the same request served cold.

A ``(fingerprint, volley digest)`` result cache sits ahead of admission.
A hit skips the queue slot, the micro-batch and the pool round-trip, so
it only pays off if those are the cost it saves:

* **hot-hit speedup** — a served request answered from the result cache
  vs the same request dispatched cold through the full stack.
  Acceptance: **≥ 10×** lower mean latency.

Every timed answer is checked against the direct evaluation first — a
fast wrong answer would be worthless.  Results land in
``BENCH_runtime.json`` at the repo root.

Run standalone::

    python benchmarks/bench_runtime.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.runtime import RESULT_CACHE
from repro.serve.batcher import BatchPolicy
from repro.serve.demo import demo_column, demo_volleys
from repro.serve.pool import InlineWorkerPool
from repro.serve.registry import ModelRegistry
from repro.serve.service import TNNService

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

#: Acceptance bound (full mode).
MIN_HOT_HIT_SPEEDUP = 10.0

FULL_REQUESTS = 300
SMOKE_REQUESTS = 60


def _bench_hot_hit(network, *, requests: int) -> dict:
    """Mean served latency: cold full-stack dispatch vs result-cache hits."""
    arity = len(network.input_ids)
    volleys = demo_volleys(arity, requests, seed=3)

    def serve_sweep(result_cache: bool) -> tuple[float, int]:
        RESULT_CACHE.clear()
        registry = ModelRegistry()
        registry.register(network, name="bench")
        service = TNNService(
            registry,
            InlineWorkerPool(registry.documents()),
            policy=BatchPolicy(max_batch=64, max_wait_s=0.0),
            result_cache=result_cache,
        )
        try:
            expected = service.direct("bench", volleys)
            wrong = 0
            # Warm pass: compiles plans; with the cache armed it also
            # fills every (fingerprint, volley) entry.
            for volley, want in zip(volleys, expected):
                if service.submit("bench", volley).result(timeout=60) != want:
                    wrong += 1
            start = time.perf_counter()
            for volley, want in zip(volleys, expected):
                if service.submit("bench", volley).result(timeout=60) != want:
                    wrong += 1
            elapsed = time.perf_counter() - start
        finally:
            service.close()
            RESULT_CACHE.clear()
        return elapsed / requests, wrong

    cold_s, cold_wrong = serve_sweep(result_cache=False)
    hot_s, hot_wrong = serve_sweep(result_cache=True)
    return {
        "requests": requests,
        "cold_us": round(cold_s * 1e6, 2),
        "hot_us": round(hot_s * 1e6, 2),
        "speedup": round(cold_s / hot_s, 2),
        "wrong_answers": cold_wrong + hot_wrong,
    }


def run(*, smoke: bool = False) -> dict:
    network, _ = demo_column(0, smoke=True)
    hot_hit = _bench_hot_hit(
        network, requests=SMOKE_REQUESTS if smoke else FULL_REQUESTS
    )
    return {
        "benchmark": "bench_runtime",
        "smoke": smoke,
        "model": network.name,
        "nodes": len(network.nodes),
        "min_hot_hit_speedup": MIN_HOT_HIT_SPEEDUP,
        "hot_hit": hot_hit,
    }


def report(*, smoke: bool = False, artifact_path=ARTIFACT) -> tuple[str, bool]:
    data = run(smoke=smoke)
    artifact_path = Path(artifact_path)
    artifact_path.write_text(json.dumps(data, indent=2) + "\n")

    ok = True
    lines = [f"Result-cache hot path — {data['model']} ({data['nodes']} nodes)"]
    hot = data["hot_hit"]
    lines.append(
        f"result-cache hot hit: {hot['cold_us']:.0f}µs cold → "
        f"{hot['hot_us']:.0f}µs hot = {hot['speedup']:.1f}× "
        f"({hot['requests']} requests)"
    )
    if hot["wrong_answers"]:
        ok = False
        lines.append("  FAIL: served answers diverged from direct evaluation")
    if not smoke and hot["speedup"] < MIN_HOT_HIT_SPEEDUP:
        ok = False
        lines.append(
            f"  FAIL: below the {MIN_HOT_HIT_SPEEDUP:.0f}× acceptance bound"
        )
    lines.append(f"\nartifact: {artifact_path}")
    lines.append(
        "\nshape: a result-cache hit skips the micro-batcher and the worker "
        "round-trip entirely, leaving only validation and digest cost."
    )
    return "\n".join(lines), ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small batch and request count (CI quick mode; no pass/fail)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=ARTIFACT,
        help=f"artifact path (default {ARTIFACT.name} at repo root)",
    )
    args = parser.parse_args(argv)
    text, ok = report(smoke=args.smoke, artifact_path=args.json)
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
