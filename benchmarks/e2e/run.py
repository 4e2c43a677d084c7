"""End-to-end benchmark of the served system (``python -m repro serve``).

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed N [--workload NAME] [--seconds S]
        [--trace [0|1]] [--smoke] [--selfcheck] [--out PATH]

Each workload launches the real server CLI — ``python -m repro serve
--port 0 --port-file F --workers 1 --model-file M`` (``--train
--snapshot-every 25`` for ``train_mixed``), every other setting at its
default — and drives it from this process:

1. set-up: the server is started five times (once on ``wide_unique``);
   ``setup_s`` is the median time from launch until the port file exists
   and ``health`` shows every worker alive (the last start serves the
   run);
2. warm-up, discarded: one burst of each batch size, then a closed loop;
3. throughput: closed loop with 128 requests in flight, in windows;
4. latency: open loop at the workload's fixed rate, in windows; every
   request is timed from when it was *due*.

``rss_mb`` is read after the last window.  After the timed phases every
``ok`` response is byte-checked against a direct evaluation (for
``train_mixed``, per served fingerprint via ``want_model_id`` and
``model_doc``); any mismatch fails the run.

``BENCHMARK.json`` holds two of the measured metrics to a bound,
``setup_s`` and ``rss_mb``.  Throughput and latency (``throughput_rps``,
``p50_ms``, ``p99_ms``) do not repeat within a 0.10 bound on a shared
two-core machine, so they are per-layer metrics: the plain run keeps
them in its result file, and the traced run reports them.

``--trace 1`` is a separate run: one untraced server runs the same
phases (throughput and latency), then ``traced_server.py`` (timing
wrappers + request tracing) runs them again, and the per-layer metrics
come from its spans; after shutdown an offline phase times
``repro.network.evaluate_batch`` on the workload's model at B = 1024.
Every run prints each metric with its unit and, as its
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the full result (medians, quartiles, sample counts and an
environment header) goes to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from time import monotonic
from typing import Optional

from client import ClientError, LoadClient, paced
from layers import per_layer, percentile
from workloads import (
    WORKLOADS,
    VolleyStream,
    column_inputs,
    srm0_column,
    training_seed_network,
    wire_volley,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Closed-loop requests in flight.
INFLIGHT = 128

#: Closed- and open-loop window lengths of a column workload (s): one
#: pair per 1.25 s of ``--seconds``, 30 % closed loop, 70 % open loop.
TPUT_WINDOW_S = 0.375
LAT_WINDOW_S = 0.875

#: Requests per second of closed loop rendered ahead of each window
#: (above any rate the server reaches on two cores; a shortfall is
#: rendered on the fly).
CLOSED_LOOP_RENDER_RPS = 25_000

#: Seconds a server may take to become ready, drain, or exit.
START_TIMEOUT_S = 150.0
DRAIN_TIMEOUT_S = 30.0
EXIT_TIMEOUT_S = 30.0

#: Offline batch size.
OFFLINE_BATCH = 1024

#: Every metric this benchmark reports, with its unit (``BENCHMARK.json``
#: names the same set; a test keeps the two in step).
END_TO_END_UNITS = {
    "setup_s": "s",
    "rss_mb": "MB",
}
#: Served throughput and latency: measured like the end-to-end metrics
#: (and kept in every result file), but too noisy to hold to a bound.
SERVED_UNITS = {
    "throughput_rps": "req/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
}
PER_LAYER_UNITS = SERVED_UNITS | {
    "wire.parse_us": "us",
    "wire.encode_us": "us",
    "wire.unattributed_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.lookup_us": "us",
    "cache.evictions": "count",
    "service.submit_us": "us",
    "service.rejected": "count",
    "batch.wait_ms_p50": "ms",
    "batch.wait_ms_p99": "ms",
    "batch.mean_size": "rows",
    "batch.count": "count",
    "pool.ipc_ms": "ms",
    "pool.batches": "count",
    "engine.batch_ms": "ms",
    "engine.row_us": "us",
    "engine.busy": "ratio",
    "engine.batch_vps": "volleys/s",
    "setup.register_s": "s",
    "setup.optimize_s": "s",
    "setup.worker_ready_s": "s",
    "client.lag_p99_ms": "ms",
    "trace.overhead_pct": "%",
}
#: Per-layer metrics of the training plane, reported on ``train_mixed``
#: only (the workload ``BENCHMARK.json`` leaves out).
TRAIN_LAYER_UNITS = {
    "train.steps_per_s": "1/s",
    "train.step_ms": "ms",
    "train.snapshot_ms": "ms",
    "train.promote_ms": "ms",
    "train.dropped": "count",
}


class BenchError(RuntimeError):
    """The run could not be completed (server or transport failure)."""


def is_ok(line: Optional[bytes]) -> bool:
    """Whether a recorded eval response is an ``ok`` answer."""
    return line is not None and b'"ok":true' in line


@dataclass(frozen=True)
class Phases:
    """The served windows, in order, and how long each phase runs (s)."""

    starts: int
    warmup_s: float
    #: ``"tp"`` (closed-loop) and ``"lat"`` (open-loop) windows, in order.
    schedule: tuple[str, ...]
    tput_s: float
    lat_s: float
    offline_s: float


def phases_for(workload, seconds: float, *, smoke: bool) -> Phases:
    """Split *seconds* of measurement over the phases of *workload*.

    A column workload spends 30 % of it in closed-loop windows and 70 %
    in open-loop windows.  Many short windows, alternating, spread every
    served metric over the run: a short slow spell of a shared machine
    then lands on a few samples of each metric, and the reported
    medians step over it.  The traced run's offline phase takes another
    20 % of *seconds*.

    ``train_mixed`` is the exception.  Each of its windows is one
    snapshot period (25 train ops at 10/s = 2.5 s), so it holds one
    promotion, and that promotion's stall sets the window's tail: a
    window is one sample of the stall.  The run serves one cycle of
    three windows (one closed-, two open-loop) per 5 s of *seconds*
    (nine windows, 22.5 s, at 15 s), and its warm-up outlasts the first
    snapshot, the slowest one.
    """
    if smoke:
        return Phases(1, 0.3, ("tp", "lat"), 1.0, 1.0, 0.3)
    if workload.model == "train":
        period = workload.snapshot_every / workload.train_rate
        cycles = max(1, round(seconds / 5))
        return Phases(workload.starts, 1.5 * period, ("tp", "lat", "lat") * cycles, period,
                      period, 0.2 * seconds)
    pairs = max(1, round(seconds / (TPUT_WINDOW_S + LAT_WINDOW_S)))
    return Phases(workload.starts, 1.0, ("tp", "lat") * pairs, TPUT_WINDOW_S, LAT_WINDOW_S,
                  0.2 * seconds)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def summarize(samples: list[float], unit: str) -> dict:
    """Median, quartiles and count of one metric's repetitions."""
    if not samples:
        raise BenchError("metric has no samples")
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return {
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": samples,
        "unit": unit,
    }


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _vmrss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


def rss_mb(pid: int) -> float:
    """Summed resident memory of a server and its worker processes."""
    with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
        children = [int(p) for p in handle.read().split()]
    return sum(_vmrss_kb(p) for p in [pid, *children]) / 1024.0


class Server:
    """One launched server process (its own session: killable as a group)."""

    def __init__(self, cmd: list[str], workdir: Path, name: str) -> None:
        self.port_file = workdir / f"{name}.port"
        self.port_file.unlink(missing_ok=True)
        self.log_path = workdir / f"{name}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.cmd = [*cmd, "--port", "0", "--port-file", str(self.port_file)]
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.ready_at = 0.0

    async def start(self, workers: int) -> float:
        """Launch; returns seconds until the port file and healthy workers."""
        t0 = monotonic()
        self.proc = subprocess.Popen(
            self.cmd, cwd=ROOT, env=_server_env(), stdout=self._log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        while True:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"server exited with {self.proc.returncode} during start-up "
                    f"(log: {self.log_path})"
                )
            if monotonic() - t0 > START_TIMEOUT_S:
                raise BenchError(f"server not ready after {START_TIMEOUT_S:.0f}s")
            try:
                text = self.port_file.read_text(encoding="utf-8")
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                self.port = int(text)
                break
            await asyncio.sleep(0.005)
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            while True:
                writer.write(b'{"op":"health"}\n')
                await writer.drain()
                health = json.loads(await reader.readline())
                if health.get("workers_alive") == workers:
                    break
                await asyncio.sleep(0.005)
        finally:
            writer.close()
        self.ready_at = monotonic()
        return self.ready_at - t0

    async def stop(self) -> None:
        """Ask for a clean drain; kill the process group if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
                writer.write(b'{"op":"shutdown"}\n')
                await writer.drain()
                await asyncio.wait_for(reader.readline(), timeout=EXIT_TIMEOUT_S)
                writer.close()
            except (OSError, asyncio.TimeoutError):
                pass
        deadline = monotonic() + EXIT_TIMEOUT_S
        while self.proc.poll() is None and monotonic() < deadline:
            await asyncio.sleep(0.02)
        clean = self.proc.poll() == 0
        self.kill()
        if not clean:
            raise BenchError(f"server did not exit cleanly (log: {self.log_path})")

    def kill(self) -> None:
        """Kill whatever is left of the process group and wait for it."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=EXIT_TIMEOUT_S)
        # Workers share the group; after a clean exit the server has
        # already joined them and the group is empty.
        deadline = monotonic() + 5.0
        while monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        self._log.close()
        self.proc = None


# ---------------------------------------------------------------------------
# one served session
# ---------------------------------------------------------------------------

class Session:
    """The client side of one serving run: requests, phases, records."""

    def __init__(self, workload, stream, model_key: str, *, traced: bool) -> None:
        self.workload = workload
        self.stream = stream
        self.model_key = model_key
        self.traced = traced
        self.train = workload.model == "train"
        self.tags: list[tuple[int, str]] = []
        self.tag = ""
        self.client = LoadClient(self._render)
        self.windows: dict[str, list[tuple[float, float]]] = {"tp": [], "lat": []}
        self.snapshots: dict[str, dict] = {}
        self.rss: list[float] = []
        self.documents: dict[str, str] = {}
        self._train_k = 0
        self._train_items: list = []

    def _render(self, i: int) -> bytes:
        extra = ""
        if self.train:
            extra += ',"want_model_id":true'
        if self.traced:
            extra += f',"trace":"{self.tag}.{i}"'
        volley = wire_volley(self.stream.volley(i))
        return (
            f'{{"op":"eval","id":{i},"model":"{self.model_key}",'
            f'"volley":{volley}{extra}}}\n'
        ).encode()

    def set_tag(self, tag: str) -> None:
        self.tag = tag
        self.tags.append((len(self.client.lines), tag))

    def tag_of(self, i: int) -> str:
        tag = ""
        for first, name in self.tags:
            if first > i:
                break
            tag = name
        return tag

    def _send_train(self) -> None:
        item = self._train_items[self._train_k % len(self._train_items)]
        volley = "[" + ",".join(
            "null" if v is None else str(v) for v in item.to_wire()["volley"]
        ) + "]"
        label = "" if item.label is None else f',"label":{item.label}'
        self.client.send_train(
            f'{{"op":"train","id":"t{self._train_k}","volley":{volley}{label}}}\n'.encode()
        )
        self._train_k += 1

    async def run(self, server: Server, ph: Phases) -> None:
        """Warm-up, then the closed- and open-loop windows of *ph*."""
        from repro.serve.batcher import BatchPolicy

        client = self.client
        await client.connect("127.0.0.1", server.port)
        train_stop = asyncio.Event()
        train_task = None
        if self.train:
            from repro.train import classification_scenario

            self._train_items = classification_scenario(seed=0).items()
            train_task = asyncio.ensure_future(
                paced(1.0 / self.workload.train_rate, train_stop, self._send_train)
            )
        try:
            self.set_tag("w")
            # The worker keeps scratch buffers for each batch size it has
            # run, so its memory climbs whenever a new size turns up.  One
            # burst of each size, each answered before the next, runs
            # every size once; memory is then level for the whole run.
            # The sweep goes first, while the result cache is empty.
            for size in range(1, BatchPolicy().max_batch + 1):
                client.burst(size)
                await client.drain(DRAIN_TIMEOUT_S)
            client.start_closed(INFLIGHT)
            await asyncio.sleep(ph.warmup_s)
            client.stop_closed()
            await client.drain(DRAIN_TIMEOUT_S)
            self.snapshots["first"] = await client.control({"op": "metrics"})
            for kind in ph.schedule:
                self.set_tag(kind)
                if kind == "tp":
                    client.prepare(int(ph.tput_s * CLOSED_LOOP_RENDER_RPS))
                    t0 = monotonic()
                    client.start_closed(INFLIGHT)
                    await asyncio.sleep(ph.tput_s)
                    client.stop_closed()
                    self.windows["tp"].append((t0, t0 + ph.tput_s))
                else:
                    client.prepare(int(ph.lat_s * self.workload.rate))
                    self.windows["lat"].append(
                        await client.open_loop(ph.lat_s, self.workload.rate)
                    )
                await client.drain(DRAIN_TIMEOUT_S)
            self.rss.append(rss_mb(server.proc.pid))
            train_stop.set()
            if train_task is not None:
                await train_task
            await client.drain(DRAIN_TIMEOUT_S)
            self.snapshots["last"] = await client.control({"op": "metrics"})
            if self.train:
                for fingerprint in sorted(self.served_models()):
                    reply = await client.control({"op": "model_doc", "model": fingerprint})
                    if not reply.get("ok"):
                        raise BenchError(f"model_doc {fingerprint[:12]} failed: {reply}")
                    self.documents[fingerprint] = reply["document"]
        finally:
            train_stop.set()
            if train_task is not None and not train_task.done():
                train_task.cancel()
            await client.close()

    def served_models(self) -> set[str]:
        return {json.loads(line)["model"] for line in self.client.lines if is_ok(line)}

    # -- metrics ----------------------------------------------------------
    def throughput(self) -> list[float]:
        """``ok`` answers per second in each closed-loop window."""
        recv = sorted(r for r, line in zip(self.client.recv, self.client.lines) if is_ok(line))
        return [
            (bisect.bisect_left(recv, t1) - bisect.bisect_left(recv, t0)) / (t1 - t0)
            for t0, t1 in self.windows["tp"]
        ]

    def latency_windows(self) -> list[dict]:
        """Per open-loop window: ok latencies from due and send lags (ms)."""
        client = self.client
        out = []
        firsts = [first for first, tag in self.tags if tag == "lat"]
        ends = [first for first, _tag in self.tags[1:]] + [len(client.lines)]
        for first in firsts:
            end = next(e for e in ends if e > first)
            window = {"lat": [], "lag": []}
            for i in range(first, end):
                window["lag"].append((client.sent[i] - client.due[i]) * 1e3)
                if is_ok(client.lines[i]):
                    window["lat"].append((client.recv[i] - client.due[i]) * 1e3)
            out.append(window)
        return out


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def outcome_counts(session: Session) -> tuple[list[int], dict[str, int]]:
    """Ids of ``ok`` eval responses and counts of every failure kind."""
    ok: list[int] = []
    errors: dict[str, int] = {}
    for i, line in enumerate(session.client.lines):
        if is_ok(line):
            ok.append(i)
        elif line is None:
            errors["missing"] = errors.get("missing", 0) + 1
        else:
            code = json.loads(line).get("code", "unknown")
            errors[code] = errors.get(code, 0) + 1
    for line in session.client.train_replies.values():
        reply = json.loads(line)
        if not (reply.get("ok") and reply.get("accepted")):
            key = "train-dropped" if reply.get("ok") else f"train-{reply.get('code')}"
            errors[key] = errors.get(key, 0) + 1
    return ok, errors


def expected_lines(session: Session, network, ids: list[int]) -> dict[int, str]:
    """The canonical ``ok`` response each id must have received."""
    from repro.network import evaluate_batch, serialize
    from repro.network.compile_plan import decode_matrix
    from repro.serve.protocol import canonical, ok_response

    stream = session.stream
    groups: dict[Optional[str], list[int]] = {}
    if session.train:
        for i in ids:
            groups.setdefault(json.loads(session.client.lines[i])["model"], []).append(i)
    else:
        groups[None] = ids
    expected: dict[int, str] = {}
    for fingerprint, members in groups.items():
        model = network if fingerprint is None else serialize.loads(session.documents[fingerprint])
        if fingerprint is not None and model.fingerprint() != fingerprint:
            raise BenchError(f"document of {fingerprint[:12]} rebuilds to another model")
        # Repeated keys are evaluated once.
        keys = [stream.key(i) for i in members]
        unique: dict = {}
        for i, key in zip(members, keys):
            unique.setdefault(i if key is None else key, i)
        reps = list(unique.values())
        rows: dict[int, tuple] = {}
        for start in range(0, len(reps), 4096):
            chunk = reps[start : start + 4096]
            outputs = decode_matrix(evaluate_batch(model, stream.rows(chunk)))
            rows.update(zip(chunk, outputs))
        for i, key in zip(members, keys):
            row = rows[unique[i if key is None else key]]
            expected[i] = canonical(
                ok_response(
                    i, row,
                    trace=f"{session.tag_of(i)}.{i}" if session.traced else None,
                    model=fingerprint,
                )
            )
    return expected


def byte_check(lines, expected: dict[int, str]) -> list[int]:
    """Ids whose recorded response differs from the expected bytes."""
    return [i for i, want in expected.items() if lines[i] != want.encode()]


def corrupt(line: bytes) -> bytes:
    """The same response with its first output time changed."""
    from repro.serve.protocol import canonical

    reply = json.loads(line)
    first = reply["outputs"][0]
    reply["outputs"][0] = 0 if first is None else first + 1
    return canonical(reply).encode()


def verify(session: Session, network, *, selfcheck: bool) -> dict:
    ok, errors = outcome_counts(session)
    expected = expected_lines(session, network, ok)
    mismatched = byte_check(session.client.lines, expected)
    report = {
        "checked": len(expected),
        "mismatches": len(mismatched),
        "first_mismatch": None if not mismatched else {
            "id": mismatched[0],
            "served": session.client.lines[mismatched[0]].decode(),
            "direct": expected[mismatched[0]],
        },
        "errors": errors,
        "train_ops": len(session.client.train_replies),
    }
    if selfcheck:
        if not ok:
            raise BenchError("self-check needs at least one ok response")
        lines = list(session.client.lines)
        victim = ok[len(ok) // 2]
        lines[victim] = corrupt(lines[victim])
        report["selfcheck"] = {
            "planted": victim,
            "flagged": byte_check(lines, expected) == [victim],
        }
    return report


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def workload_model(workload, *, smoke: bool):
    if workload.model == "train":
        return training_seed_network()
    return srm0_column(column_inputs(workload, smoke=smoke))


def server_cmd(workload, model_file: Optional[Path], *, traced_prefix: Optional[Path] = None) -> list[str]:
    if traced_prefix is None:
        cmd = [sys.executable, "-m", "repro", "serve"]
    else:
        cmd = [sys.executable, str(HERE / "traced_server.py"), "--spans-out", str(traced_prefix)]
    cmd += ["--workers", "1"]
    if model_file is not None:
        cmd += ["--model-file", str(model_file)]
    if workload.model == "train":
        cmd += ["--train", "--snapshot-every", str(workload.snapshot_every)]
    return cmd


def offline_vps(network, stream, seconds: float) -> list[float]:
    """Volleys/s of each ``evaluate_batch`` call at B = 1024, for *seconds*.

    Run while no server is up, so no server work competes with it.  The
    plan is compiled before the timed calls.
    """
    from repro.network import evaluate_batch

    matrix = stream.rows(list(range(OFFLINE_BATCH)))
    evaluate_batch(network, matrix)
    samples = []
    end = monotonic() + seconds
    while True:
        t0 = monotonic()
        evaluate_batch(network, matrix)
        t1 = monotonic()
        samples.append(OFFLINE_BATCH / (t1 - t0))
        if t1 >= end:
            return samples


async def serve_session(workload, network, stream, ph: Phases, workdir: Path, *,
                        model_file: Optional[Path], traced_prefix: Optional[Path] = None,
                        starts: int = 1, name: str = "server"):
    """Start the server *starts* times, run one session on the last start."""
    setup: list[float] = []
    server = None
    try:
        for k in range(starts):
            server = Server(
                server_cmd(workload, model_file, traced_prefix=traced_prefix),
                workdir, f"{name}-{k}",
            )
            setup.append(await server.start(workers=1))
            if k < starts - 1:
                await server.stop()
        key = (
            "digits@live" if workload.model == "train" else network.fingerprint()
        )
        session = Session(workload, stream, key, traced=traced_prefix is not None)
        await session.run(server, ph)
        await server.stop()
        return session, setup, server
    finally:
        if server is not None:
            server.kill()


async def run_workload(workload, seed: int, seconds: float, *, trace: bool, smoke: bool,
                       selfcheck: bool) -> dict:
    from repro.network import serialize

    ph = phases_for(workload, seconds, smoke=smoke)
    network = workload_model(workload, smoke=smoke)
    arity = len(network.input_ids)
    workdir = OUT / f"{workload.name}-s{seed}{'-trace' if trace else ''}"
    workdir.mkdir(parents=True, exist_ok=True)
    model_file = None
    if workload.model == "column":
        model_file = workdir / "model.json"
        serialize.save(network, model_file)

    def fresh_stream():
        return VolleyStream(workload.traffic, seed, arity)

    result: dict = {"workload": workload.name, "phases": asdict(ph)}
    if not trace:
        session, setup, _server = await serve_session(
            workload, network, fresh_stream(), ph, workdir, model_file=model_file,
            starts=ph.starts,
        )
        result["metrics"] = {"setup_s": summarize(setup, "s"), **served_metrics(session)}
        windows = session.latency_windows()
        result["detail"] = {
            "latency_samples": sum(len(w["lat"]) for w in windows),
            "lag_p99_ms": [percentile(w["lag"], 0.99) for w in windows],
            "serve": _serve_detail(session),
        }
        sessions = [session]
    else:
        plain, _setup, _ = await serve_session(
            workload, network, fresh_stream(), ph, workdir, model_file=model_file,
            name="untraced",
        )
        prefix = workdir / "spans"
        traced, _setup, server = await serve_session(
            workload, network, fresh_stream(), ph, workdir, model_file=model_file,
            traced_prefix=prefix, name="traced",
        )
        served = served_metrics(plain)
        untraced_rps = served["throughput_rps"]["median"]
        traced_rps = statistics.median(traced.throughput())
        summary = json.loads(Path(f"{prefix}.summary.json").read_text(encoding="utf-8"))
        client = traced.client
        rtt = {
            i: client.recv[i] - client.sent[i]
            for i, line in enumerate(client.lines)
            if is_ok(line)
        }
        windows = traced.latency_windows()
        values = per_layer(
            summary,
            windows=traced.windows["tp"] + traced.windows["lat"],
            tags=("tp", "lat"),
            client_rtt=rtt,
            metrics_first=traced.snapshots["first"],
            metrics_last=traced.snapshots["last"],
            setup_end=server.ready_at,
            lag_p99_ms=statistics.median(percentile(w["lag"], 0.99) for w in windows),
            overhead_pct=(untraced_rps - traced_rps) / untraced_rps * 100.0,
            batch_vps=statistics.median(offline_vps(network, fresh_stream(), ph.offline_s)),
        )
        units = PER_LAYER_UNITS | (TRAIN_LAYER_UNITS if workload.model == "train" else {})
        result["metrics"] = served | {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name not in served
        }
        result["detail"] = {
            "latency_samples": sum(len(w["lat"]) for w in plain.latency_windows()),
            "untraced_rps": untraced_rps,
            "traced_rps": traced_rps,
            "exports": [f"{prefix}.{ext}" for ext in ("spans.jsonl", "requests.jsonl", "trace.json")],
            "serve": _serve_detail(traced),
        }
        sessions = [plain, traced]

    checks = [verify(s, network, selfcheck=selfcheck) for s in sessions]
    result["check"] = checks
    result["env_serve"] = _serve_env(sessions[-1])
    attempted = sum(len(s.client.lines) + len(s.client.train_replies) for s in sessions)
    failed = sum(sum(c["errors"].values()) for c in checks)
    result["attempted"] = attempted
    result["failed"] = failed
    result["error_rate"] = failed / max(1, attempted)
    result["correct"] = all(
        c["mismatches"] == 0 and c.get("selfcheck", {"flagged": True})["flagged"] for c in checks
    )
    return result


def served_metrics(session: Session) -> dict:
    """Throughput, latency and memory of one session, summarized.

    The latency percentiles pool every open-loop window of the run: a
    window of the wide column holds 350 requests, too few for a p99 with
    ten samples beyond it.
    """
    latencies = [ms for w in session.latency_windows() for ms in w["lat"]]
    return {
        "throughput_rps": summarize(session.throughput(), "req/s"),
        "p50_ms": summarize([percentile(latencies, 0.50)], "ms"),
        "p99_ms": summarize([percentile(latencies, 0.99)], "ms"),
        "rss_mb": summarize(session.rss, "MB"),
    }


def _serve_detail(session: Session) -> dict:
    first, last = session.snapshots["first"], session.snapshots["last"]
    serve = last.get("serve", {})
    return {
        "batch_size": serve.get("batch_size"),
        "result_cache": serve.get("result_cache"),
        "training": serve.get("training"),
        "rejected": serve.get("rejected"),
        "requests_since_warmup": serve.get("requests", 0) - first.get("serve", {}).get("requests", 0),
    }


def _serve_env(session: Session) -> dict:
    serve = session.snapshots["last"].get("serve", {})
    return {
        "engine": serve.get("engine"),
        "policy": serve.get("policy"),
        "max_pending": serve.get("max_pending"),
        "result_cache": {
            k: (serve.get("result_cache") or {}).get(k) for k in ("enabled", "max_entries")
        },
        "workers": serve.get("workers_alive"),
    }


# ---------------------------------------------------------------------------
# environment header and output
# ---------------------------------------------------------------------------

def environment(args, seconds: float) -> dict:
    import numpy

    commit, dirty = None, None
    # Without a .git of its own, git would search the parent directories
    # for a repository; a checkout that is not one records no commit.
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "repro_native": os.environ.get("REPRO_NATIVE", "auto"),
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "trace": bool(args.trace),
    }


def _final_line(results: list[dict], *, prefix: bool, trace: bool) -> dict:
    """The last output line: the end-to-end metrics, or the per-layer ones."""
    names = PER_LAYER_UNITS | TRAIN_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {}
    for result in results:
        for name, entry in result["metrics"].items():
            if name not in names:
                continue
            key = f"{result['workload']}.{name}" if prefix else name
            value = entry["value"] if "value" in entry else entry["median"]
            metrics[key] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def _print_result(result: dict) -> None:
    print(f"== {result['workload']}")
    for name, entry in result["metrics"].items():
        if "median" in entry:
            print(
                f"  {name:<22} {entry['median']:>12.4f} {entry['unit']:<9} "
                f"q1 {entry['q1']:.4f}  q3 {entry['q3']:.4f}  n={entry['n']}"
            )
        else:
            print(f"  {name:<22} {entry['value']:>12.4f} {entry['unit']}")
    print(f"  p50_ms and p99_ms over {result['detail']['latency_samples']} open-loop requests")
    for check in result["check"]:
        line = (
            f"  check: {check['checked']} ok responses byte-checked, "
            f"{check['mismatches']} mismatches, errors {check['errors'] or 'none'}"
        )
        if "selfcheck" in check:
            line += f"; selfcheck {'detected' if check['selfcheck']['flagged'] else 'MISSED'} the planted corruption"
        print(line)


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="volley-stream seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: BENCHMARK.json "
                             "run_seconds); compare.py compares only runs of one length")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="1: the traced run, reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1 s phases, one start, a 20-input column for wide_unique")
    parser.add_argument("--selfcheck", action="store_true",
                        help="also corrupt one recorded response and require the check to flag it")
    parser.add_argument("--out", type=Path, help="result file (default: under benchmarks/e2e/out/)")
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds or json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    )["run_seconds"]
    env = environment(args, seconds)
    results = []
    try:
        for name in names:
            result = asyncio.run(
                run_workload(WORKLOADS[name], args.seed, seconds, trace=bool(args.trace),
                             smoke=args.smoke, selfcheck=args.selfcheck)
            )
            _print_result(result)
            results.append(result)
    except (BenchError, ClientError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    env["serve"] = results[-1].pop("env_serve")
    for result in results:
        result.pop("env_serve", None)
    out = args.out or OUT / (
        f"result-{args.workload or 'all'}-s{args.seed}{'-trace' if args.trace else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps({"env": env, "workloads": {r["workload"]: r for r in results}}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"result file: {out}")
    final = _final_line(results, prefix=args.workload is None, trace=bool(args.trace))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
