"""Per-layer metrics of a traced run, from the traced server's summary.

The traced server (``traced_server.py``) reports two things: per wrapped
function, calls and total/self seconds in 100 ms buckets of the shared
monotonic clock; and, for every k-th request id, the durations of the
request trace's ``queue``, ``attempt``, ``engine`` and ``encode`` spans,
its batch size and whether the result cache answered it.  This module
turns those, the client's own timings and the server's ``metrics``
snapshots into the per-layer metrics ``BENCHMARK.json`` lists, over the
timed window (the closed-loop and open-loop phases).

A batch is counted once: each of its *n* requests carries the batch's
engine and attempt time, so per-batch sums weight each request by 1/n.
"""

from __future__ import annotations

import math
from statistics import median
from typing import Optional


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))]


def bucket_sum(summary: dict, name: str, windows, *, before: Optional[float] = None):
    """``(calls, total_s, self_s)`` of *name* over buckets in *windows*.

    Spans are bucketed by start time.  A bucket belongs to a window when
    its centre does; with *before*, every bucket that starts before that
    time is taken instead.
    """
    width = summary["bucket_s"]
    calls, total, own = 0, 0.0, 0.0
    for key, (n, t, s) in summary["buckets"].get(name, {}).items():
        centre = (int(key) + 0.5) * width
        if before is not None:
            hit = int(key) * width < before
        else:
            hit = any(t0 <= centre < t1 for t0, t1 in windows)
        if hit:
            calls, total, own = calls + n, total + t, own + s
    return calls, total, own


def counter_delta(first: dict, last: dict, name: str) -> int:
    """Growth of a ``metrics``-op counter between two snapshots."""
    get = lambda snap: snap.get("metrics", {}).get("counters", {}).get(name, 0)
    return get(last) - get(first)


def _training(snapshot: dict) -> dict:
    return snapshot.get("serve", {}).get("training") or {}


def per_layer(
    summary: dict,
    *,
    windows: list[tuple[float, float]],
    tags: tuple[str, ...],
    client_rtt: dict[int, float],
    metrics_first: dict,
    metrics_last: dict,
    setup_end: float,
    lag_p99_ms: float,
    overhead_pct: float,
    batch_vps: float,
) -> dict[str, float]:
    """Every per-layer metric, keyed by its ``BENCHMARK.json`` name.

    *windows* are the timed phases on the monotonic clock and *tags* the
    trace-id prefixes of their requests; *client_rtt* maps a request id
    to its client-observed send-to-answer seconds; *metrics_first* and
    *metrics_last* are ``metrics`` snapshots taken at the window's
    edges; *setup_end* is when the server became ready.  The last three
    are measured by the benchmark itself and passed through.
    """
    wall = sum(t1 - t0 for t0, t1 in windows)

    def mean_self_us(name: str) -> float:
        calls, _total, own = bucket_sum(summary, name, windows)
        return own / calls * 1e6 if calls else 0.0

    requests = [summary["requests"].get(tag) for tag in tags]
    requests = [r for r in requests if r]
    columns = {
        field: [v for r in requests for v in r[field]]
        for field in ("id", "root", "queue", "attempt", "engine", "batch", "hit")
    }
    # Only every k-th request's trace is read; per-batch sums scale back.
    scale = summary["trace_sample_every"]
    dispatched = [
        (queue, attempt, engine, batch)
        for queue, attempt, engine, batch, hit in zip(
            columns["queue"], columns["attempt"], columns["engine"],
            columns["batch"], columns["hit"],
        )
        if not hit and batch
    ]
    sampled_batches = sum(1.0 / b for *_, b in dispatched)
    engine_s = sum(e / b for _q, _a, e, b in dispatched)
    ipc_s = sum((a - e) / b for _q, a, e, b in dispatched)
    waits_ms = [q * 1e3 for q, *_ in dispatched] or [0.0]
    rtt = [(client_rtt.get(int(i)), root) for i, root in zip(columns["id"], columns["root"])]
    unattributed = [(c - root) * 1e3 for c, root in rtt if c is not None]
    hits = counter_delta(metrics_first, metrics_last, "result_cache.hit")
    misses = counter_delta(metrics_first, metrics_last, "result_cache.miss")
    sizes = [snap.get("serve", {}).get("batch_size", {}) for snap in (metrics_first, metrics_last)]
    batches = sizes[1].get("batches", 0) - sizes[0].get("batches", 0)
    rows = sizes[1].get("rows", 0) - sizes[0].get("rows", 0)

    digest = bucket_sum(summary, "cache.digest", windows)
    get = bucket_sum(summary, "cache.get", windows)
    stats_first = metrics_first.get("serve", {}).get("rejected", {})
    stats_last = metrics_last.get("serve", {}).get("rejected", {})
    steps = _training(metrics_last).get("applied", 0) - _training(metrics_first).get("applied", 0)
    dropped = (
        _training(metrics_last).get("queue", {}).get("dropped", 0)
        - _training(metrics_first).get("queue", {}).get("dropped", 0)
    )
    step_calls, step_s, _ = bucket_sum(summary, "train.step", windows)
    snapshots, snapshot_s, _ = bucket_sum(summary, "train.snapshot", windows)
    promotes, promote_s, _ = bucket_sum(summary, "train.promote", windows)

    return {
        "wire.parse_us": mean_self_us("wire.parse"),
        "wire.encode_us": mean_self_us("wire.encode"),
        "wire.unattributed_ms": median(unattributed) if unattributed else 0.0,
        "cache.hit_ratio": hits / max(1, hits + misses),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.lookup_us": (digest[1] + get[1]) / get[0] * 1e6 if get[0] else 0.0,
        "cache.evictions": counter_delta(metrics_first, metrics_last, "result_cache.evict"),
        "service.submit_us": mean_self_us("service.submit"),
        "service.rejected": sum(stats_last.values()) - sum(stats_first.values()),
        "batch.wait_ms_p50": percentile(waits_ms, 0.50),
        "batch.wait_ms_p99": percentile(waits_ms, 0.99),
        "batch.mean_size": rows / batches if batches else 0.0,
        "batch.count": batches,
        "pool.ipc_ms": ipc_s / sampled_batches * 1e3 if sampled_batches else 0.0,
        "pool.batches": bucket_sum(summary, "pool.submit", windows)[0],
        "engine.batch_ms": engine_s / sampled_batches * 1e3 if sampled_batches else 0.0,
        "engine.row_us": engine_s / len(dispatched) * 1e6 if dispatched else 0.0,
        "engine.busy": engine_s * scale / wall,
        "engine.batch_vps": batch_vps,
        "setup.register_s": bucket_sum(summary, "setup.register", (), before=setup_end)[2],
        "setup.optimize_s": bucket_sum(summary, "setup.optimize", (), before=setup_end)[1],
        "setup.worker_ready_s": bucket_sum(summary, "setup.pool", (), before=setup_end)[1],
        "train.steps_per_s": steps / wall,
        "train.step_ms": step_s / step_calls * 1e3 if step_calls else 0.0,
        # A snapshot's span holds its promotion's; both are counted once.
        "train.snapshot_ms": (snapshot_s - promote_s) / snapshots * 1e3 if snapshots else 0.0,
        "train.promote_ms": promote_s / promotes * 1e3 if promotes else 0.0,
        "train.dropped": dropped,
        "client.lag_p99_ms": lag_p99_ms,
        "trace.overhead_pct": overhead_pct,
    }
