"""Request tracing through the serving stack: spans, retries, telemetry."""

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.core.value import INF
from repro.obs import rtrace
from repro.obs.rtrace import canonical_jsonl, well_formed
from repro.serve.batcher import BatchPolicy
from repro.serve.demo import demo_column, demo_volleys
from repro.serve.pool import (
    InlineWorkerPool,
    Job,
    ProcessWorkerPool,
    pack_rows,
    start_loop,
)
from repro.serve.protocol import ServeError, encode_line, eval_request
from repro.serve.registry import ModelRegistry
from repro.serve.server import run_server_async
from repro.serve.service import BATCH_SIZE, LATENCY, PHASE_SAMPLE_EVERY, TNNService
from repro.obs.metrics import METRICS, PROMETHEUS_CONTENT_TYPE
from repro.serve.top import render_frame, top_main
from repro.testing import check_served


@pytest.fixture(autouse=True)
def clean_observability():
    """Tracing off, flight ring and serving histograms empty, around each test."""
    rtrace.enable_rtrace(False)
    rtrace.FLIGHT.clear()
    LATENCY.reset()
    BATCH_SIZE.reset()
    yield
    rtrace.enable_rtrace(False)
    rtrace.FLIGHT.clear()
    LATENCY.reset()
    BATCH_SIZE.reset()


@pytest.fixture()
def registry():
    reg = ModelRegistry()
    reg.register(demo_column(0, smoke=True)[0], name="demo")
    return reg


def make_service(registry, pool=None, **kwargs):
    kwargs.setdefault("policy", BatchPolicy(max_batch=8, max_wait_s=0.002))
    if pool is None:
        pool = InlineWorkerPool(registry.programs())
    return TNNService(registry, pool, **kwargs)


class FlakyPool(InlineWorkerPool):
    """Fails the first *n* submits (as a dead worker would), then recovers."""

    def __init__(self, programs, fail_first=1):
        super().__init__(programs)
        self.failures_left = fail_first

    def submit(self, job):
        if self.failures_left > 0:
            self.failures_left -= 1
            raise ServeError("worker-failure", "synthetic crash")
        super().submit(job)


class LyingPool(InlineWorkerPool):
    """Evaluates correctly, then corrupts every answer — a conformance bug."""

    def submit(self, job):
        original = job.on_done
        job.on_done = lambda rows: original([tuple(0 for _ in r) for r in rows])
        super().submit(job)


def spans_named(trace, name):
    return [s for s in trace.spans if s.name == name]


class TestServiceTracing:
    def test_untraced_by_default(self, registry):
        service = make_service(registry)
        try:
            service.submit("demo", (2, INF)).result(timeout=10)
        finally:
            service.close()
        assert not rtrace.FLIGHT.traces()
        assert service.stats()["rtrace"] == {
            "enabled": False,
            "flight": rtrace.FLIGHT.stats(),
        }

    def test_ok_request_records_full_span_tree(self, registry):
        service = make_service(registry)
        try:
            with rtrace.rtracing():
                service.submit("demo", (2, INF)).result(timeout=10)
        finally:
            service.close()
        [trace] = rtrace.FLIGHT.traces()
        assert trace.outcome == "ok"
        assert not well_formed(trace), well_formed(trace)
        names = [s.name for s in trace.spans]
        assert names[:3] == ["request", "queue", "attempt"]
        # The inline pool reports its evaluation time back as an engine span.
        assert spans_named(trace, "engine")
        [attempt] = spans_named(trace, "attempt")
        assert attempt.attrs["attempt"] == 1

    def test_client_supplied_trace_id_wins(self, registry):
        service = make_service(registry)
        try:
            with rtrace.rtracing():
                service.submit("demo", (2, INF), trace_id="client-7").result(
                    timeout=10
                )
        finally:
            service.close()
        [trace] = rtrace.FLIGHT.traces()
        assert trace.trace_id == "client-7"
        assert {s.trace_id for s in trace.spans} == {"client-7"}

    def test_retry_keeps_one_trace_with_two_attempts(self, registry):
        """The acceptance shape: crash → retry → both attempts, one trace."""
        pool = FlakyPool(registry.programs(), fail_first=1)
        service = make_service(registry, pool=pool, max_attempts=3)
        try:
            with rtrace.rtracing():
                volley = (2, INF)
                result = service.submit("demo", volley).result(timeout=10)
            [direct] = service.direct("demo", [volley])
            assert result == direct  # the retried answer is still right
        finally:
            service.close()
        [trace] = rtrace.FLIGHT.traces()
        assert trace.outcome == "ok"
        assert not well_formed(trace), well_formed(trace)
        attempts = spans_named(trace, "attempt")
        assert [s.attrs["attempt"] for s in attempts] == [1, 2]
        assert attempts[0].attrs["error"] == "synthetic crash"
        assert "error" not in attempts[1].attrs
        # Each attempt was preceded by its own queue span, same trace id.
        assert len(spans_named(trace, "queue")) == 2
        assert {s.trace_id for s in trace.spans} == {trace.trace_id}
        assert rtrace.FLIGHT.stats()["trips"].get("worker-failure") is None

    def test_exhausted_retries_trip_the_flight_recorder(self, registry):
        pool = FlakyPool(registry.programs(), fail_first=10)
        service = make_service(registry, pool=pool, max_attempts=2)
        try:
            with rtrace.rtracing():
                with pytest.raises(ServeError) as err:
                    service.submit("demo", (2, INF)).result(timeout=10)
            assert err.value.code == "worker-failure"
        finally:
            service.close()
        [trace] = rtrace.FLIGHT.traces()
        assert trace.outcome == "worker-failure"
        assert len(spans_named(trace, "attempt")) == 2
        assert rtrace.FLIGHT.stats()["trips"]["worker-failure"] == 1

    def test_overload_is_traced_and_counted(self, registry):
        """Rejected requests appear in both the trace ring and the stats."""
        from repro.network.compile_plan import evaluate_batch

        class ParkingPool:
            """Holds jobs so ``max_pending`` saturates deterministically."""

            def __init__(self):
                self.jobs = []
                self.loop, self.stop_loop = start_loop()

            def alive_count(self):
                return 1

            def inflight(self):
                return len(self.jobs)

            def submit(self, job):
                self.jobs.append(job)

            def release_all(self, reg):
                jobs, self.jobs = self.jobs, []
                for job in jobs:
                    entry = reg.resolve(job.model_id)
                    matrix = np.frombuffer(job.volleys, np.int64).reshape(job.rows, -1)
                    job.on_done(evaluate_batch(entry.program, matrix).tolist())

            def add_model(self, model_id, program, payload=None):
                pass

            def shutdown(self, timeout=10.0):
                self.stop_loop(timeout)

        pool = ParkingPool()
        service = make_service(registry, pool=pool, max_pending=1)
        with rtrace.rtracing():
            held = service.submit("demo", (2, INF))  # takes the only slot
            rejected = 0
            for _ in range(3):
                try:
                    service.submit("demo", (3, INF))
                except ServeError as error:
                    assert error.code == "overloaded"
                    rejected += 1
            # All three must bounce: the parked job keeps pending at 1.
            assert rejected == 3
            deadline = time.monotonic() + 10.0
            while not pool.jobs and time.monotonic() < deadline:
                time.sleep(0.005)
            pool.release_all(registry)
            held.result(timeout=10)
        service.close()
        overloaded = [
            t for t in rtrace.FLIGHT.traces() if t.outcome == "overloaded"
        ]
        assert len(overloaded) == rejected
        for trace in overloaded:
            assert not well_formed(trace), well_formed(trace)
        snapshot = service.stats()
        by_outcome = snapshot["latency_by_outcome"]["demo"]["total"]
        assert by_outcome["overloaded"]["count"] == rejected
        assert by_outcome["ok"]["count"] == 1

    def test_byte_stable_across_two_identical_runs(self, registry):
        """Same requests, fresh service → identical canonical trace bytes."""

        def one_run():
            rtrace.FLIGHT.clear()
            service = make_service(registry)
            try:
                with rtrace.rtracing():
                    for volley in demo_volleys(2, 6, seed=4):
                        service.submit("demo", volley).result(timeout=10)
            finally:
                service.close()
            return canonical_jsonl(rtrace.FLIGHT.traces())

        doc1, doc2 = one_run(), one_run()
        assert doc1 == doc2
        roots = [
            line
            for line in doc1.splitlines()
            if json.loads(line)["parent"] is None
        ]
        assert len(roots) == 6  # one span tree per request


class TestProcessPoolTracing:
    def test_crash_retry_lands_both_attempts_under_one_trace(self, registry):
        """Kill a worker mid-stream; the flight dump shows the retry."""
        pool = ProcessWorkerPool(registry.programs(), n_workers=2)
        service = make_service(
            registry,
            pool=pool,
            policy=BatchPolicy(max_batch=4, max_wait_s=0.002),
            max_attempts=4,
        )
        retried = None
        try:
            with rtrace.rtracing():
                for round_no in range(20):
                    futures = [
                        service.submit("demo", volley)
                        for volley in demo_volleys(2, 8, seed=round_no)
                    ]
                    pool.inject_crash(round_no % 2)
                    for future in futures:
                        try:
                            future.result(timeout=30)
                        except ServeError as error:
                            assert error.code == "worker-failure"
                    retried = next(
                        (
                            t
                            for t in rtrace.FLIGHT.traces()
                            if len(spans_named(t, "attempt")) >= 2
                        ),
                        None,
                    )
                    if retried is not None:
                        break
        finally:
            service.close()
        assert retried is not None, "no crash landed mid-batch in 20 rounds"
        assert not well_formed(retried), well_formed(retried)
        attempts = spans_named(retried, "attempt")
        assert {s.trace_id for s in attempts} == {retried.trace_id}
        assert attempts[0].attrs["error"]
        assert [s.attrs["attempt"] for s in attempts] == list(
            range(1, len(attempts) + 1)
        )

    def test_worker_metrics_piggyback_reaches_the_frontend(self, registry):
        # Reset first: the load barrier's pong already reports the
        # worker's warm-up scratch.
        METRICS.reset()
        pool = ProcessWorkerPool(registry.programs(), n_workers=1)
        service = make_service(registry, pool=pool)
        try:
            service.submit("demo", (2, INF)).result(timeout=30)
            # The worker's scratch memory is counted in the frontend registry.
            assert METRICS.counter("plan.scratch.allocs") >= 1
            assert METRICS.maximum("plan.scratch_bytes") > 0
            lines = METRICS.prometheus().splitlines()
        finally:
            service.close()
        series = {line.split(" ", 1)[0] for line in lines if not line.startswith("#")}
        assert {
            "repro_evaluate_batch_calls_total",
            "repro_plan_runs_total",
            "repro_plan_scratch_bytes_max",
        } <= series

    def test_a_warm_barrier_folds_every_unreported_count(self, registry):
        """21 batches (not a multiple of the piggyback period) count exactly."""
        entry = registry.resolve("demo")
        model_id = entry.model_id
        pool = ProcessWorkerPool(registry.programs(), n_workers=2)
        try:
            METRICS.reset()
            rows = 0
            for job_id in range(21):
                done = threading.Event()
                matrix = np.full((1 + job_id % 3, entry.input_arity), job_id)
                rows += matrix.shape[0]
                pool.submit(
                    Job(
                        job_id,
                        model_id,
                        pack_rows(matrix.tolist()),
                        len(matrix),
                        {},
                        lambda _r: done.set(),
                        print,
                    )
                )
                assert done.wait(timeout=30)
            assert METRICS.counter("evaluate_batch.calls") < 21  # piggybacks only
            assert pool.wait_warm(timeout=30)
            assert METRICS.counter("evaluate_batch.calls") == 21
            assert METRICS.counter("evaluate_batch.volleys") == rows
        finally:
            pool.shutdown()

    def test_worker_counts_never_go_backwards_across_a_restart(self, registry):
        pool = ProcessWorkerPool(registry.programs(), n_workers=1)
        service = make_service(registry, pool=pool)
        calls = []
        submits = 0

        def serve(n):
            nonlocal submits
            for _ in range(n):
                service.submit("demo", (submits, INF)).result(timeout=30)
                submits += 1
                calls.append(METRICS.counter("evaluate_batch.calls"))

        try:
            METRICS.reset()
            serve(40)
            pool.inject_crash(0)
            deadline = time.monotonic() + 30
            while pool.restarts < 1 or pool.alive_count() < 1:
                assert time.monotonic() < deadline, "worker was not replaced"
                time.sleep(0.01)
            serve(3)
        finally:
            service.close()
        assert calls[0] >= 1
        assert calls == sorted(calls)
        # The replacement's first reply reports; it adds what it ran,
        # not the registry it was forked with.
        assert calls[-1] > calls[39]
        assert METRICS.counter("serve.requests") == submits


#: Every span a sampled traced request carries through the service.
SAMPLED_SPAN_NAMES = {
    "request",
    "queue",
    "attempt",
    "engine",
    "engine.evaluate_batch.plan",
    "engine.evaluate_batch.encode",
    "engine.evaluate_batch.run",
}


def make_pool(pool_kind, registry):
    if pool_kind == "inline":
        return InlineWorkerPool(registry.programs())
    return ProcessWorkerPool(registry.programs(), n_workers=1)


@pytest.mark.parametrize("pool_kind", ["inline", "process"])
def test_both_pools_run_one_worker_body(registry, pool_kind):
    """Same sampled engine-phase spans and same failure counters per pool."""
    service = make_service(registry, pool=make_pool(pool_kind, registry))
    try:
        with rtrace.rtracing():
            # One request at a time: each is its own traced batch.
            for volley in demo_volleys(2, PHASE_SAMPLE_EVERY, seed=3):
                service.submit("demo", volley).result(timeout=30)
    finally:
        service.close()
    traces = rtrace.FLIGHT.traces()
    assert len(traces) == PHASE_SAMPLE_EVERY
    assert {s.name for t in traces for s in t.spans} == SAMPLED_SPAN_NAMES
    sampled = [t for t in traces if spans_named(t, "engine.evaluate_batch.run")]
    assert sampled
    for trace in sampled:
        assert not well_formed(trace), well_formed(trace)
        [run] = spans_named(trace, "engine.evaluate_batch.run")
        [engine] = spans_named(trace, "engine")
        assert run.parent_id == engine.span_id

    # A job for a model the worker does not hold: one submit, one failure.
    pool = make_pool(pool_kind, registry)
    submits = METRICS.counter("serve.pool.submits")
    failures = METRICS.counter("serve.worker.failures")
    done = threading.Event()
    outcomes = []

    def record(outcome):
        outcomes.append(outcome)
        done.set()

    try:
        volleys = pack_rows([(0, 0)])
        pool.submit(Job(1, "f" * 64, volleys, 1, {}, record, record))
        assert done.wait(timeout=30)
    finally:
        pool.shutdown()
    [reason] = outcomes
    assert "not loaded" in reason
    assert METRICS.counter("serve.pool.submits") == submits + 1
    assert METRICS.counter("serve.worker.failures") == failures + 1


class TestCheckServedFlightDump:
    def test_mismatch_attaches_flight_dump(self, registry, tmp_path):
        service = make_service(registry, pool=LyingPool(registry.programs()))
        prefix = tmp_path / "flight"
        try:
            with rtrace.rtracing():
                report = check_served(
                    service,
                    "demo",
                    demo_volleys(2, 4, seed=5),
                    flight_dump=str(prefix),
                )
        finally:
            service.close()
        assert not report.byte_identical
        assert report.flight_paths == [
            str(prefix) + ".jsonl",
            str(prefix) + ".trace.json",
        ]
        dumped = (tmp_path / "flight.jsonl").read_text()
        roots = [
            line
            for line in dumped.splitlines()
            if json.loads(line)["parent"] is None
        ]
        assert len(roots) == 4  # one span tree per volley
        assert "flight recorder dumped" in report.summary()

    def test_clean_sweep_dumps_nothing(self, registry, tmp_path):
        service = make_service(registry)
        prefix = tmp_path / "flight"
        try:
            report = check_served(
                service,
                "demo",
                demo_volleys(2, 4, seed=5),
                flight_dump=str(prefix),
            )
        finally:
            service.close()
        assert report.byte_identical
        assert not report.flight_paths
        assert not (tmp_path / "flight.jsonl").exists()


async def _request(reader, writer, message):
    writer.write(encode_line(message))
    await writer.drain()
    return json.loads(await reader.readline())


def run_session(session, **server_kwargs):
    """Port-0 server harness mirroring tests/serve/test_server.py."""

    async def main():
        reg = ModelRegistry()
        reg.register(demo_column(0, smoke=True)[0], name="demo")
        service = TNNService(
            reg,
            InlineWorkerPool(reg.programs()),
            policy=BatchPolicy(max_batch=8, max_wait_s=0.001),
        )
        ready = asyncio.get_running_loop().create_future()
        server_task = asyncio.ensure_future(
            run_server_async(service, port=0, ready=ready, **server_kwargs)
        )
        port = await ready
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            result = await session(reader, writer, service)
        finally:
            await _request(reader, writer, {"op": "shutdown"})
            writer.close()
            await asyncio.wait_for(server_task, timeout=15)
        return result

    return asyncio.run(main())


class TestServerTelemetry:
    def test_trace_field_echoed_only_when_supplied(self):
        async def session(reader, writer, service):
            with rtrace.rtracing():
                traced = await _request(
                    reader, writer, eval_request(1, "demo", (2, INF), trace="c1")
                )
                plain = await _request(
                    reader, writer, eval_request(2, "demo", (2, INF))
                )
            assert traced["ok"] and traced["trace"] == "c1"
            assert plain["ok"] and "trace" not in plain
            ids = [t.trace_id for t in rtrace.FLIGHT.traces()]
            assert "c1" in ids  # the client id names the server-side trace

        run_session(session)

    def test_traced_response_gets_an_encode_span(self):
        async def session(reader, writer, service):
            with rtrace.rtracing():
                reply = await _request(
                    reader, writer, eval_request(1, "demo", (2, INF), trace="c2")
                )
                assert reply["ok"]
                await asyncio.sleep(0)  # let the response callback finish
            [trace] = [
                t for t in rtrace.FLIGHT.traces() if t.trace_id == "c2"
            ]
            assert spans_named(trace, "encode")
            assert not well_formed(trace), well_formed(trace)

        run_session(session)

    def test_metrics_op_merges_worker_snapshots(self):
        async def session(reader, writer, service):
            await _request(reader, writer, eval_request(1, "demo", (2, INF)))
            reply = await _request(reader, writer, {"op": "metrics"})
            assert reply["ok"]
            # Worker counts live in the one registry, not a section of their own.
            assert "workers" not in reply
            assert reply["metrics"]["counters"]["evaluate_batch.calls"] >= 1
            assert reply["serve"]["rtrace"]["enabled"] is False

        run_session(session)

    def test_metrics_text_op_serves_prometheus_format(self):
        async def session(reader, writer, service):
            await _request(reader, writer, eval_request(1, "demo", (2, INF)))
            reply = await _request(reader, writer, {"op": "metrics_text"})
            assert reply["ok"]
            assert reply["content_type"] == PROMETHEUS_CONTENT_TYPE
            text = reply["text"]
            assert "# TYPE repro_serve_latency_seconds histogram" in text
            assert 'le="+Inf"' in text
            assert "repro_serve_pool_inflight" in text
            assert "repro_serve_pending" in text

        run_session(session)


class TestTopDashboard:
    def payload(self):
        return {
            "ok": True,
            "serve": {
                "engine": "native",
                "models": 1,
                "workers_alive": 2,
                "queue_depth": 0,
                "max_pending": 4,
                "queue_peak": 3,
                "requests": 120,
                "responses_ok": 118,
                "retries": 1,
                "rejected": {"overloaded": 2},
                "batch_size": {"batches": 16, "rows": 120, "mean_size": 7.5},
                "latency_by_stage": {
                    "total": {"count": 118, "p50_ms": 1.0, "p90_ms": 2.0,
                              "p99_ms": 4.0, "max_ms": 5.0, "window": 118,
                              "sum_s": 0.2},
                },
                "latency_by_outcome": {
                    "demo": {
                        "total": {
                            "deadline": {"count": 2, "p50_ms": 9.0,
                                         "p90_ms": 9.0, "p99_ms": 9.0,
                                         "max_ms": 9.0, "window": 2,
                                         "sum_s": 0.02},
                        }
                    }
                },
                "rtrace": {
                    "enabled": True,
                    "flight": {"buffered": 5, "capacity": 512,
                               "recorded": 120, "trips": {"deadline-miss": 2}},
                },
                "worker_failures": 1,
                "worker_restarts": 1,
            },
            "metrics": {"counters": {"evaluate_batch.calls": 16, "serve.ok": 118}},
        }

    def test_render_frame_shows_the_story(self):
        frame = render_frame(self.payload())
        assert "engine=native" in frame
        assert "rejected: overloaded=2" in frame
        assert "demo/deadline" in frame
        assert "\nengine: evaluate_batch.calls=16\n" in frame
        assert "rtrace: on" in frame and "deadline-miss" in frame
        assert "worker failures: 1" in frame

    def test_render_frame_rates_from_deltas(self):
        previous = self.payload()
        current = self.payload()
        current["serve"]["requests"] = previous["serve"]["requests"] + 50
        frame = render_frame(current, previous=previous, interval=1.0)
        assert "(50/s)" in frame

    def test_top_once_against_live_server(self, capsys):
        """``repro top --once`` polls a real server's metrics op."""
        reg = ModelRegistry()
        reg.register(demo_column(0, smoke=True)[0], name="demo")
        service = TNNService(
            reg,
            InlineWorkerPool(reg.programs()),
            policy=BatchPolicy(max_batch=8, max_wait_s=0.001),
        )
        loop_holder = {}
        started = threading.Event()

        def serve():
            async def main():
                ready = asyncio.get_running_loop().create_future()
                loop_holder["loop"] = asyncio.get_running_loop()
                task = asyncio.ensure_future(
                    run_server_async(service, port=0, ready=ready)
                )
                loop_holder["port"] = await ready
                loop_holder["task"] = task
                started.set()
                try:
                    await task
                except asyncio.CancelledError:
                    pass  # the test cancels the server when it is done

            asyncio.run(main())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(timeout=15)
        try:
            code = top_main(
                ["--port", str(loop_holder["port"]), "--once"]
            )
        finally:
            loop_holder["loop"].call_soon_threadsafe(loop_holder["task"].cancel)
            thread.join(timeout=15)
            service.close()
        assert code == 0
        out = capsys.readouterr().out
        assert "repro serve top" in out
        assert "rtrace: off" in out

    def test_top_returns_failure_when_nothing_listens(self, capsys):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        assert top_main(["--port", str(free_port), "--once"]) == 1
        assert "cannot connect" in capsys.readouterr().out
