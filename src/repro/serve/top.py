"""``python -m repro top``: a live terminal dashboard for the server.

Polls a running ``python -m repro serve`` instance over its own NDJSON
protocol — the ``metrics`` op for the structured snapshot and ``health``
for liveness — and renders a compact top-style view: request/queue
gauges, throughput computed from successive counter deltas, per-stage
latency quantiles from the sliding-window histograms, outcome counters,
engine counters, worker pool state, and flight-recorder trips.

``--once`` prints a single frame and exits (scriptable, and what the
tests drive); otherwise the screen refreshes every ``--interval``
seconds until interrupted.  The dashboard is a pure client: it holds one
connection and sends one request per frame, so watching a server costs
it one extra request per interval.
"""

from __future__ import annotations

import argparse
import json
import socket
import time
from typing import Any, Optional

from .protocol import encode_line

#: ANSI clear-screen + home, used between live frames.
_CLEAR = "\x1b[2J\x1b[H"


class TopClient:
    """A blocking single-connection NDJSON client (dashboard-grade)."""

    def __init__(self, host: str, port: int, *, timeout: float = 5.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")

    def request(self, message: dict) -> dict:
        self._sock.sendall(encode_line(message))
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


def _fmt_quantiles(h: Optional[dict]) -> str:
    if not h or not h.get("count"):
        return "-"
    return (
        f"n={h['count']} p50={h['p50_ms']:.2f}ms "
        f"p90={h['p90_ms']:.2f}ms p99={h['p99_ms']:.2f}ms "
        f"max={h['max_ms']:.2f}ms"
    )


def render_frame(
    payload: dict, *, previous: Optional[dict] = None, interval: float = 0.0
) -> str:
    """One dashboard frame from a ``metrics`` payload (pure function).

    *previous* is the prior frame's payload; with it (and *interval*)
    the frame shows request/response rates from counter deltas.
    """
    serve: dict[str, Any] = payload.get("serve", {})
    lines: list[str] = []

    def rate(key: str) -> str:
        if previous is None or interval <= 0:
            return ""
        delta = serve.get(key, 0) - previous.get("serve", {}).get(key, 0)
        return f" ({delta / interval:,.0f}/s)"

    lines.append(
        f"repro serve top — engine={serve.get('engine', '?')} "
        f"models={serve.get('models', '?')} "
        f"workers={serve.get('workers_alive', '?')} "
        f"queue={serve.get('queue_depth', '?')}/{serve.get('max_pending', '?')} "
        f"(peak {serve.get('queue_peak', '?')})"
    )
    lines.append(
        f"requests: {serve.get('requests', 0):,}{rate('requests')}   "
        f"ok: {serve.get('responses_ok', 0):,}{rate('responses_ok')}   "
        f"retries: {serve.get('retries', 0)}"
    )
    rejected = serve.get("rejected", {})
    lines.append(
        "rejected: "
        + "  ".join(f"{k}={v}" for k, v in sorted(rejected.items()))
    )
    batch = serve.get("batch_size", {})
    lines.append(
        f"batches: {batch.get('batches', 0):,} "
        f"rows={batch.get('rows', 0):,} mean_size={batch.get('mean_size', 0)}"
    )
    lines.append("latency (ok, sliding window):")
    for stage, hist in (serve.get("latency_by_stage") or {}).items():
        lines.append(f"  {stage:<8} {_fmt_quantiles(hist)}")
    by_outcome = serve.get("latency_by_outcome") or {}
    failure_rows = []
    for model, stages in sorted(by_outcome.items()):
        for outcome, hist in sorted((stages.get("total") or {}).items()):
            if outcome != "ok" and hist.get("count"):
                failure_rows.append(
                    f"  {model or '(all)'}/{outcome:<16} {_fmt_quantiles(hist)}"
                )
    if failure_rows:
        lines.append("latency (failures, total stage):")
        lines.extend(failure_rows)
    counters = payload.get("metrics", {}).get("counters", {})
    engine = sorted(
        (name, value)
        for name, value in counters.items()
        if name.startswith(("evaluate_batch.", "plan."))
    )
    if engine:
        lines.append(
            "engine: " + "  ".join(f"{k}={v:,}" for k, v in engine[:4])
        )
    rtrace = serve.get("rtrace", {})
    flight = rtrace.get("flight", {})
    lines.append(
        f"rtrace: {'on' if rtrace.get('enabled') else 'off'}  "
        f"flight: {flight.get('buffered', 0)}/{flight.get('capacity', 0)} "
        f"buffered, {flight.get('recorded', 0)} recorded, "
        f"trips={flight.get('trips', {}) or '{}'}"
    )
    failures = serve.get("worker_failures", 0)
    restarts = serve.get("worker_restarts", 0)
    if failures or restarts:
        lines.append(f"worker failures: {failures}  restarts: {restarts}")
    return "\n".join(lines)


def top_main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description=(
            "Live terminal dashboard for a running `python -m repro "
            "serve` instance (polls its metrics op)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7070)
    parser.add_argument(
        "--interval", type=float, default=2.0, help="refresh period (seconds)"
    )
    parser.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )
    args = parser.parse_args(argv)
    try:
        client = TopClient(args.host, args.port)
    except OSError as error:
        print(f"top: cannot connect to {args.host}:{args.port}: {error}")
        return 1
    previous: Optional[dict] = None
    try:
        while True:
            try:
                payload = client.request({"op": "metrics"})
            except (OSError, ConnectionError, json.JSONDecodeError) as error:
                print(f"top: server went away: {error}")
                return 1
            frame = render_frame(
                payload, previous=previous, interval=args.interval
            )
            if args.once:
                print(frame)
                return 0
            print(_CLEAR + frame, flush=True)
            previous = payload
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()
