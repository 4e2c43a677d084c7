"""Load generator and client-side conformance checker.

``python -m repro loadgen`` opens ``--concurrency`` connections, streams
``--requests`` deterministic seeded volleys at the server, and verifies
**every** response byte-for-byte against a direct ``evaluate_batch``.
The server resolves the target itself: ``--model`` (an alias, a full
fingerprint, or an unambiguous prefix) goes through its ``model_doc``
op, the same lookup an ``eval`` uses, and the network rebuilt from the
returned document is the oracle — its fingerprint must be the one the
reply names.  A single differing byte is a conformance failure and a
non-zero exit.

A run that neither trains nor promotes also rebuilds its model locally
(the demo column from ``--model-seed``/``--smoke``, or the ``--kernel``
demo) and refuses to start unless that fingerprint is the resolved one,
so mismatched seeds or flags fail the handshake instead of reporting
bogus mismatches.  With ``--train-every N`` every Nth request is a
``train`` op against the server's training plane (``serve --train``);
``--promote-at I`` promotes the training alias to the lineage head at
request I.  The served model then evolves mid-run, so every eval asks
for ``want_model_id`` and each response is checked against the
document of the fingerprint that served it (retired versions included:
the server archives them).

Rejections (``overloaded``/``deadline``) are counted separately — they
are the backpressure contract working, not mismatches — but any
transport error, malformed response, or mismatch fails the run.  The
server's metrics snapshot is always fetched at the end — the summary
reports the serving engine and per-worker plan warmup counts from it —
and ``--metrics-out`` additionally writes the full snapshot to disk
(the CI artifact).  With ``--shutdown`` the last act is a ``shutdown``
op (clean server drain).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from pathlib import Path
from typing import Optional

from .demo import demo_column, demo_volleys
from .protocol import (
    E_NO_MODEL,
    canonical,
    encode_line,
    eval_request,
    ok_response,
    volley_to_wire,
)


class LoadgenError(RuntimeError):
    """A transport/protocol failure that invalidates the run."""


async def _request(reader, writer, message: dict) -> dict:
    """One in-order request/response exchange on a dedicated connection."""
    writer.write(encode_line(message))
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise LoadgenError("connection closed mid-request")
    return json.loads(line)


#: Tries of the mid-run promotion (see :func:`_promote_head`).
PROMOTE_ATTEMPTS = 5


async def _promote_head(reader, writer, alias: str) -> dict:
    """Promote the training plane's lineage head onto *alias*.

    A snapshot that lands between reading the head and promoting it
    retires that head, and the promotion is refused ``no-such-model``;
    the head is then read again, up to :data:`PROMOTE_ATTEMPTS` times.
    Returns the last promote reply, or ``{}`` when the lineage is empty.
    """
    reply: dict = {}
    for attempt in range(PROMOTE_ATTEMPTS):
        if attempt:
            await asyncio.sleep(0.01)
        lineage = await _request(reader, writer, {"op": "lineage", "id": "lg-lineage"})
        head = lineage.get("lineage", {}).get("head")
        if not head:
            break
        reply = await _request(
            reader,
            writer,
            {"op": "promote", "id": "lg-promote", "alias": alias, "model": head},
        )
        if reply.get("code") != E_NO_MODEL:
            break
    return reply


#: Stream read limit: ``model_doc`` responses carry whole serialized
#: network documents, which easily exceed asyncio's 64 KiB default
#: readline bound.
_READ_LIMIT = 16 << 20


async def _open(host: str, port: int, *, attempts: int = 40, delay: float = 0.25):
    """Connect with retries (the server may still be warming workers)."""
    for attempt in range(attempts):
        try:
            return await asyncio.open_connection(host, port, limit=_READ_LIMIT)
        except OSError:
            if attempt == attempts - 1:
                raise
            await asyncio.sleep(delay)


async def _model_doc(reader, writer, key: str):
    """``(fingerprint, network)`` the server resolves *key* to."""
    from ..network import serialize

    reply = await _request(reader, writer, {"op": "model_doc", "model": key})
    if not reply.get("ok"):
        raise LoadgenError(f"model_doc for {key!r} failed: {canonical(reply)}")
    network = serialize.loads(reply["document"])
    if network.fingerprint() != reply["model"]:
        raise LoadgenError(
            f"document for {reply['model'][:12]} rebuilds to "
            f"{network.fingerprint()[:12]}"
        )
    return reply["model"], network


async def run_loadgen(
    *,
    host: str = "127.0.0.1",
    port: int,
    requests: int = 500,
    concurrency: int = 32,
    seed: int = 0,
    model: str = "demo",
    model_seed: int = 0,
    smoke: bool = False,
    kernel: Optional[str] = None,
    shutdown: bool = False,
    metrics_out: Optional[str] = None,
    trace: bool = False,
    report_out: Optional[str] = None,
    train_every: int = 0,
    promote_at: Optional[int] = None,
) -> dict:
    """Drive the server; returns the run report (also printed by the CLI).

    With *kernel* set, the local model is the stdlib kernel demo
    (:func:`repro.kernels.demo_network` — a pure function of the name,
    so client and server fingerprints agree by construction) and the
    target defaults to ``kernel:<name>``.  With *train_every* or
    *promote_at* set the server must run a training plane, and the
    target defaults to its alias.

    With *trace* on, every eval carries a deterministic trace id
    (``lg<i>``) and the byte-check expects the echoed ``trace`` field in
    each response — so the traced serving path is held to the exact same
    byte-identity contract as the untraced one.  *report_out* writes the
    run report as JSON (the CI overhead comparison reads two of these).
    """
    live = bool(train_every) or promote_at is not None
    if kernel is not None and model == "demo":
        model = f"kernel:{kernel}"
    local = None
    if not live:
        if kernel is not None:
            from ..kernels import demo_network

            local = demo_network(kernel)
        else:
            local = demo_column(model_seed, smoke=smoke)[0]

    connections = [await _open(host, port)]
    reader, writer = connections[0]
    try:
        if live:
            metrics_reply = await _request(reader, writer, {"op": "metrics"})
            training = metrics_reply.get("serve", {}).get("training")
            if training is None:
                raise LoadgenError(
                    "server is not running a training plane (start it with --train)"
                )
            if model == "demo":
                model = training["alias"]
        target, network = await _model_doc(reader, writer, model)
        oracles = {target: network}
        # Fingerprint handshake: the byte-check is only meaningful if the
        # server's model really is the one this run was asked to drive.
        if local is not None and local.fingerprint() != target:
            raise LoadgenError(
                f"server model {model!r} has fingerprint {target[:12]}, local "
                f"demo is {local.fingerprint()[:12]} — did the seeds/--smoke/"
                "--kernel flags match?"
            )

        arity = len(network.input_ids)
        volleys = demo_volleys(arity, requests, seed=seed)
        train_volleys = (
            demo_volleys(arity, requests, seed=seed + 1, silence_probability=0.05)
            if train_every
            else []
        )
        is_train = [
            train_every > 0 and i % train_every == train_every - 1
            for i in range(requests)
        ]
        trace_ids = [f"lg{i}" if trace else None for i in range(requests)]

        results: list[Optional[dict]] = [None] * requests
        latencies: list[float] = [0.0] * requests
        index_iter = iter(range(requests))
        index_lock = asyncio.Lock()
        promotion: dict = {}

        async def worker(r, w) -> None:
            while True:
                async with index_lock:
                    i = next(index_iter, None)
                if i is None:
                    return
                if i == promote_at:
                    promotion.update(await _promote_head(r, w, model))
                if is_train[i]:
                    message = {
                        "op": "train",
                        "id": i,
                        "volley": volley_to_wire(train_volleys[i]),
                    }
                else:
                    message = eval_request(i, model, volleys[i], trace=trace_ids[i])
                    if live:
                        message["want_model_id"] = True
                start = time.perf_counter()
                reply = await _request(r, w, message)
                latencies[i] = time.perf_counter() - start
                if reply.get("id") != i:
                    raise LoadgenError(
                        f"response id {reply.get('id')!r} for request {i}"
                    )
                results[i] = reply

        for _ in range(max(0, concurrency - 1)):
            connections.append(await _open(host, port))
        started = time.perf_counter()
        await asyncio.gather(*(worker(r, w) for r, w in connections))
        elapsed = time.perf_counter() - started

        ok = rejected_overload = rejected_deadline = failed = mismatches = 0
        train_accepted = train_dropped = 0
        first_mismatch: Optional[str] = None
        by_fingerprint: dict[str, list[int]] = {}
        for i, reply in enumerate(results):
            if reply is None:
                raise LoadgenError(f"request {i} never completed")
            if reply.get("ok") and is_train[i]:
                train_accepted += bool(reply.get("accepted"))
                train_dropped += not reply.get("accepted")
            elif reply.get("ok"):
                ok += 1
                fingerprint = reply.get("model") if live else target
                if not fingerprint:
                    raise LoadgenError(f"response {i} carries no model fingerprint")
                by_fingerprint.setdefault(fingerprint, []).append(i)
            elif not is_train[i] and reply.get("code") == "overloaded":
                rejected_overload += 1
            elif not is_train[i] and reply.get("code") == "deadline":
                rejected_deadline += 1
            else:
                failed += 1
                if first_mismatch is None:
                    kind = "train op" if is_train[i] else "request"
                    first_mismatch = f"{kind} {i} failed: {canonical(reply)}"

        from ..network.compile_plan import decode_matrix, evaluate_batch

        for fingerprint, indices in sorted(by_fingerprint.items()):
            if fingerprint not in oracles:
                _, oracles[fingerprint] = await _model_doc(reader, writer, fingerprint)
            direct = decode_matrix(
                evaluate_batch(oracles[fingerprint], [volleys[i] for i in indices])
            )
            for i, row in zip(indices, direct):
                expected = canonical(
                    ok_response(
                        i,
                        tuple(row),
                        trace=trace_ids[i],
                        model=fingerprint if live else None,
                    )
                )
                got = canonical(results[i])
                if got != expected:
                    mismatches += 1
                    if first_mismatch is None:
                        first_mismatch = (
                            f"request {i} volley {volley_to_wire(volleys[i])} "
                            f"on {fingerprint[:12]}: served {got} != direct "
                            f"{expected}"
                        )

        # Always fetch the metrics snapshot: the summary reports the serving
        # engine and per-worker plan warmups even without --metrics-out.
        metrics_reply = await _request(reader, writer, {"op": "metrics"})
        serve_info = metrics_reply.get("serve", {})
        if metrics_out:
            Path(metrics_out).write_text(
                json.dumps(metrics_reply, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        if shutdown:
            await _request(reader, writer, {"op": "shutdown"})
    finally:
        for _, w in connections:
            w.close()

    done = sorted(latencies)
    report = {
        "requests": requests,
        "concurrency": concurrency,
        "ok": ok,
        "rejected_overloaded": rejected_overload,
        "rejected_deadline": rejected_deadline,
        "failed": failed,
        "checked": True,
        "mismatches": mismatches,
        "first_mismatch": first_mismatch,
        "elapsed_s": round(elapsed, 4),
        "qps": round(requests / elapsed, 1) if elapsed > 0 else 0.0,
        "p50_ms": round(done[len(done) // 2] * 1e3, 3) if done else 0.0,
        "p99_ms": round(done[min(len(done) - 1, int(len(done) * 0.99))] * 1e3, 3)
        if done
        else 0.0,
        "engine": serve_info.get("engine"),
        "warmups": serve_info.get("warmups"),
        "traced": trace,
        "alias": model,
        "train_ops": sum(is_train),
        "train_accepted": train_accepted,
        "train_dropped": train_dropped,
        "models_served": len(by_fingerprint),
        "promotion": promotion or None,
        "training": serve_info.get("training"),
    }
    if report_out:
        Path(report_out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return report


def loadgen_main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro loadgen",
        description=(
            "Drive a `python -m repro serve` server with deterministic "
            "seeded volleys and byte-check every response against a "
            "direct local evaluate_batch of the same model."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7070)
    parser.add_argument("--requests", type=int, default=500)
    parser.add_argument("--concurrency", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0, help="volley stream seed")
    parser.add_argument(
        "--model",
        default="demo",
        help="served model to target: alias, fingerprint or unambiguous prefix",
    )
    parser.add_argument(
        "--model-seed",
        type=int,
        default=0,
        help="seed of the server's demo model (must match the server)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="the server was started with --smoke (smaller demo model)",
    )
    parser.add_argument(
        "--kernel",
        metavar="NAME",
        help=(
            "target a stdlib kernel demo served via `serve --kernel NAME` "
            "(rebuilds the same model locally for the handshake)"
        ),
    )
    parser.add_argument(
        "--shutdown",
        action="store_true",
        help="send a shutdown op after the run (clean server drain)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="fetch the server metrics snapshot and write it here",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "attach a deterministic trace id to every request and "
            "byte-check the echoed trace field"
        ),
    )
    parser.add_argument(
        "--report-out",
        metavar="PATH",
        help="write the run report as JSON (for throughput comparisons)",
    )
    parser.add_argument(
        "--train-every",
        type=int,
        default=0,
        metavar="N",
        help=(
            "make every Nth request a train op against the server's "
            "training plane (requires serve --train); evals are then "
            "byte-checked per served fingerprint via model_doc"
        ),
    )
    parser.add_argument(
        "--promote-at",
        type=int,
        default=None,
        metavar="I",
        help=(
            "at request index I, promote the training alias to the "
            "current lineage head (requires serve --train)"
        ),
    )
    args = parser.parse_args(argv)
    try:
        report = asyncio.run(
            run_loadgen(
                host=args.host,
                port=args.port,
                requests=args.requests,
                concurrency=args.concurrency,
                seed=args.seed,
                model=args.model,
                model_seed=args.model_seed,
                smoke=args.smoke,
                kernel=args.kernel,
                shutdown=args.shutdown,
                metrics_out=args.metrics_out,
                trace=args.trace,
                report_out=args.report_out,
                train_every=args.train_every,
                promote_at=args.promote_at,
            )
        )
    except (LoadgenError, OSError, ValueError) as error:
        print(f"loadgen failed: {error}")
        return 1
    print(
        f"loadgen: {report['ok']}/{report['requests']} ok "
        f"({report['rejected_overloaded']} overloaded, "
        f"{report['rejected_deadline']} deadline, {report['failed']} failed) "
        f"in {report['elapsed_s']}s — {report['qps']} req/s, "
        f"p50 {report['p50_ms']}ms, p99 {report['p99_ms']}ms"
    )
    if report["train_ops"]:
        print(
            f"training: {report['train_accepted']}/{report['train_ops']} "
            f"train ops accepted ({report['train_dropped']} dropped), "
            f"{report['models_served']} model version(s) served"
            + (
                f", promoted to {report['promotion']['model'][:12]}"
                if report.get("promotion")
                else ""
            )
        )
    if report["mismatches"]:
        print(
            f"CONFORMANCE FAILURE: {report['mismatches']} response(s) "
            f"differ from direct evaluate_batch"
        )
        print(f"first: {report['first_mismatch']}")
    else:
        print(
            f"conformance: all {report['ok']} responses byte-identical "
            "to direct evaluate_batch"
        )
    bad = report["mismatches"] + report["failed"]
    return 1 if bad else 0
