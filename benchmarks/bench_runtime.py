"""Runtime seam overhead: registry dispatch and the result-cache hot path.

Every execution goes through one seam — ``ENGINES.resolve(policy)``
returning an engine object whose ``evaluate`` the serving stack calls —
and a ``(fingerprint, volley digest)`` result cache sits ahead of
admission.  Both only pay off if the seam itself is free:

* **dispatch overhead** — ``engine.evaluate(network, volleys)`` through
  the resolved serving engine vs calling ``evaluate_batch`` directly, at
  B=1024.  The indirection is one attribute lookup and a bound-method
  call, so the acceptance bound is **≤ 2%**.
* **hot-hit speedup** — a served request answered from the result cache
  (no queue slot, no micro-batch, no pool round-trip) vs the same request
  dispatched cold through the full stack.  Acceptance: **≥ 10×** lower
  mean latency.

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

from repro.runtime import ENGINES, RESULT_CACHE
from repro.serve.batcher import BatchPolicy
from repro.serve.demo import demo_column, demo_volleys
from repro.serve.pool import InlineWorkerPool
from repro.serve.registry import ModelRegistry
from repro.serve.service import TNNService

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

#: Acceptance bounds (full mode).
MAX_DISPATCH_OVERHEAD_PCT = 2.0
MIN_HOT_HIT_SPEEDUP = 10.0

FULL_BATCH = 1024
SMOKE_BATCH = 128
FULL_REQUESTS = 300
SMOKE_REQUESTS = 60


def _paired_rates(
    direct, dispatch, *, repeats: int, inner: int
) -> tuple[float, float]:
    """Best-of-*repeats* seconds per call for both paths, interleaved.

    The two paths alternate within every repeat so clock-frequency drift
    and cache warmth hit them equally; min over samples is the standard
    noise-resistant estimator (hiccups only ever make a sample slower).
    """
    best_direct = best_dispatch = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            direct()
        best_direct = min(best_direct, (time.perf_counter() - start) / inner)
        start = time.perf_counter()
        for _ in range(inner):
            dispatch()
        best_dispatch = min(
            best_dispatch, (time.perf_counter() - start) / inner
        )
    return best_direct, best_dispatch


def _bench_dispatch(network, volleys, *, repeats: int) -> list[dict]:
    """Direct ``evaluate_batch`` calls vs resolved-engine dispatch."""
    from repro.network import evaluate_batch as _evaluate_batch

    cells = []
    for key in ENGINES.serving_keys():
        engine = ENGINES.resolve(key)
        direct = lambda: _evaluate_batch(network, volleys)  # noqa: E731
        dispatch = lambda: engine.evaluate(network, volleys)  # noqa: E731
        engine.warm(network)  # plans compiled before any timing
        for _ in range(3):  # both paths hot before sampling
            direct()
            dispatch()

        direct_s, dispatch_s = _paired_rates(
            direct, dispatch, repeats=repeats, inner=3
        )
        overhead_pct = (dispatch_s - direct_s) / direct_s * 100.0
        cells.append(
            {
                "engine": key,
                "batch": len(volleys),
                "direct_us": round(direct_s * 1e6, 2),
                "dispatch_us": round(dispatch_s * 1e6, 2),
                "overhead_pct": round(overhead_pct, 3),
            }
        )
    return cells


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
    arity = len(network.input_ids)
    batch = SMOKE_BATCH if smoke else FULL_BATCH
    volleys = demo_volleys(arity, batch, seed=1)

    dispatch = _bench_dispatch(network, volleys, repeats=5 if smoke else 15)
    hot_hit = _bench_hot_hit(
        network, requests=SMOKE_REQUESTS if smoke else FULL_REQUESTS
    )
    return {
        "benchmark": "bench_runtime",
        "smoke": smoke,
        "model": network.name,
        "nodes": len(network.nodes),
        "max_dispatch_overhead_pct": MAX_DISPATCH_OVERHEAD_PCT,
        "min_hot_hit_speedup": MIN_HOT_HIT_SPEEDUP,
        "dispatch": dispatch,
        "hot_hit": hot_hit,
    }


def report(*, smoke: bool = False, artifact_path=ARTIFACT) -> tuple[str, bool]:
    data = run(smoke=smoke)
    artifact_path = Path(artifact_path)
    artifact_path.write_text(json.dumps(data, indent=2) + "\n")

    ok = True
    lines = [
        f"Runtime seam overhead — {data['model']} ({data['nodes']} nodes)",
        f"{'engine':>8} {'B':>6} {'direct':>10} {'dispatch':>10} {'overhead':>9}",
    ]
    for cell in data["dispatch"]:
        lines.append(
            f"{cell['engine']:>8} {cell['batch']:>6} "
            f"{cell['direct_us']:>8.1f}µs {cell['dispatch_us']:>8.1f}µs "
            f"{cell['overhead_pct']:>8.2f}%"
        )
        if not smoke and cell["overhead_pct"] > MAX_DISPATCH_OVERHEAD_PCT:
            ok = False
            lines.append(
                f"  FAIL: registry dispatch costs more than "
                f"{MAX_DISPATCH_OVERHEAD_PCT:.0f}% over the direct call"
            )
    hot = data["hot_hit"]
    lines.append(
        f"\nresult-cache hot hit: {hot['cold_us']:.0f}µs cold → "
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
        "\nshape: the registry seam adds one attribute lookup and a bound "
        "method call in front of the same compiled kernel, so dispatch is "
        "free at batch sizes that matter; a result-cache hit skips the "
        "micro-batcher and the worker round-trip entirely, leaving only "
        "validation and digest cost."
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
