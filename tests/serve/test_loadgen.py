"""Tests for the conformance-checking load generator against a live server."""

import asyncio
import json
import random
import threading

import numpy as np
import pytest

from repro.learning.stdp import STDPRule
from repro.neuron.column import Column
from repro.neuron.response import ResponseFunction
from repro.runtime.result_cache import RESULT_CACHE
from repro.serve.batcher import BatchPolicy
from repro.serve.demo import demo_column
from repro.serve.loadgen import LoadgenError, loadgen_main, run_loadgen
from repro.serve.pool import InlineWorkerPool
from repro.serve.registry import ModelRegistry
from repro.serve.server import run_server_async
from repro.serve.service import TNNService
from repro.train import TrainingPlane


def make_service(model_seed=0, result_cache=False):
    registry = ModelRegistry()
    registry.register(demo_column(model_seed, smoke=True)[0], name="demo")
    return TNNService(
        registry,
        InlineWorkerPool(registry.programs()),
        policy=BatchPolicy(max_batch=16, max_wait_s=0.001),
        result_cache=result_cache,
    )


def drive(server_seed=0, **loadgen_kwargs):
    """One server + one loadgen run inside a single event loop."""

    async def shutdown_server(port):
        r, w = await asyncio.open_connection("127.0.0.1", port)
        w.write(b'{"op":"shutdown"}\n')
        await w.drain()
        await r.readline()
        w.close()

    async def main():
        service = make_service(model_seed=server_seed)
        ready = asyncio.get_running_loop().create_future()
        server_task = asyncio.ensure_future(
            run_server_async(service, port=0, ready=ready)
        )
        port = await ready
        loadgen_kwargs.setdefault("shutdown", True)
        try:
            report = await run_loadgen(port=port, smoke=True, **loadgen_kwargs)
        except BaseException:
            # Make sure the server exits even when the loadgen fails.
            await shutdown_server(port)
            raise
        finally:
            await asyncio.wait_for(server_task, timeout=20)
        return report

    return asyncio.run(main())


class TestConformanceRun:
    def test_all_responses_byte_identical(self):
        report = drive(requests=80, concurrency=8)
        assert report["ok"] == 80
        assert report["mismatches"] == 0
        assert report["failed"] == 0
        assert report["checked"] is True
        assert report["qps"] > 0

    def test_seeded_stream_is_deterministic(self):
        a = drive(requests=30, concurrency=4, seed=7)
        b = drive(requests=30, concurrency=4, seed=7)
        assert a["ok"] == b["ok"] == 30
        assert a["mismatches"] == b["mismatches"] == 0

    def test_metrics_out_artifact(self, tmp_path):
        out = tmp_path / "metrics.json"
        report = drive(requests=20, concurrency=2, metrics_out=str(out))
        assert report["ok"] == 20
        payload = json.loads(out.read_text())
        assert payload["ok"] and "serve" in payload


def make_trained_service(snapshot_every=5, result_cache=False):
    rng = random.Random(0)
    column = Column(
        np.array([[rng.randint(1, 3) for _ in range(8)] for _ in range(3)]),
        threshold=6,
        base_response=ResponseFunction.step(amplitude=1, width=8),
    )
    registry = ModelRegistry()
    service = TNNService(
        registry,
        InlineWorkerPool(registry.programs()),
        policy=BatchPolicy(max_batch=8, max_wait_s=0.001),
        result_cache=result_cache,
    )
    plane = TrainingPlane(
        service,
        column,
        alias="tiny@live",
        rule=STDPRule(a_plus=1, a_minus=1),
        seed=3,
        snapshot_every=snapshot_every,
        model_name="tiny",
    )
    service.training = plane
    plane.start()
    return service


def drive_live(**loadgen_kwargs):
    """One training server + one live-mode loadgen run in a single loop."""

    async def main():
        service = make_trained_service()
        ready = asyncio.get_running_loop().create_future()
        server_task = asyncio.ensure_future(
            run_server_async(service, port=0, ready=ready)
        )
        port = await ready
        loadgen_kwargs.setdefault("shutdown", True)
        try:
            report = await run_loadgen(port=port, **loadgen_kwargs)
        except BaseException:
            r, w = await asyncio.open_connection("127.0.0.1", port)
            w.write(b'{"op":"shutdown"}\n')
            await w.drain()
            await r.readline()
            w.close()
            raise
        finally:
            service.training.stop()
            await asyncio.wait_for(server_task, timeout=20)
        return report

    return asyncio.run(main())


class TestLiveMode:
    def test_mixed_stream_byte_identical_per_version(self):
        report = drive_live(requests=60, concurrency=6, train_every=4)
        assert report["train_ops"] == 15
        assert report["train_accepted"] == 15
        assert report["train_dropped"] == 0
        assert report["ok"] == 45  # every non-train request served
        assert report["failed"] == 0
        assert report["mismatches"] == 0
        # The plane snapshots every 5 applied volleys, so the stream
        # spans at least one hot-swap; each served version byte-checked.
        assert report["models_served"] >= 1
        assert report["alias"] == "tiny@live"
        assert report["training"]["alias"] == "tiny@live"

    def test_promote_mid_run(self):
        report = drive_live(
            requests=40, concurrency=4, train_every=3, promote_at=20
        )
        assert report["failed"] == 0
        assert report["mismatches"] == 0
        assert report["promotion"] is not None
        assert report["promotion"]["ok"] is True
        assert report["promotion"]["alias"] == "tiny@live"

    def test_requires_training_plane(self):
        with pytest.raises(LoadgenError, match="training plane"):
            drive(requests=8, concurrency=2, train_every=2)


class TestFingerprintHandshake:
    def test_model_seed_mismatch_detected(self):
        # Server runs the seed-0 demo; the client rebuilds seed 3: the
        # handshake must refuse rather than report bogus mismatches.
        with pytest.raises(LoadgenError, match="fingerprint"):
            drive(server_seed=0, requests=5, concurrency=1, model_seed=3)


class TestTargeting:
    """The server resolves the target: any key an ``eval`` accepts works."""

    def test_full_fingerprint_target(self):
        fingerprint = demo_column(0, smoke=True)[0].fingerprint()
        report = drive(requests=20, concurrency=2, model=fingerprint)
        assert report["ok"] == 20
        assert report["mismatches"] == 0
        assert report["failed"] == 0

    def test_prefix_target(self):
        prefix = demo_column(0, smoke=True)[0].fingerprint()[:12]
        report = drive(requests=20, concurrency=2, model=prefix)
        assert report["ok"] == 20
        assert report["mismatches"] == 0
        assert report["failed"] == 0


def serve_in_thread(service):
    """Serve *service* on its own loop in a daemon thread.

    Returns ``(port, stop)``; ``stop()`` cancels the server if it is
    still running and joins the thread.  ``loadgen_main`` runs its own
    event loop, so it cannot share one with the server.
    """
    holder = {}
    started = threading.Event()

    def serve():
        async def main():
            ready = asyncio.get_running_loop().create_future()
            holder["loop"] = asyncio.get_running_loop()
            holder["task"] = asyncio.ensure_future(
                run_server_async(service, port=0, ready=ready)
            )
            holder["port"] = await ready
            started.set()
            try:
                await holder["task"]
            except asyncio.CancelledError:
                if service.training is not None:
                    service.training.stop()
                service.close(drain=False)

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(timeout=15)

    def stop():
        if thread.is_alive():
            holder["loop"].call_soon_threadsafe(holder["task"].cancel)
        thread.join(timeout=20)
        assert not thread.is_alive(), "server thread did not stop"

    return holder["port"], stop


@pytest.fixture
def clean_result_cache():
    """The result cache is process-global; start and end the test cold."""
    RESULT_CACHE.clear()
    yield
    RESULT_CACHE.clear()


@pytest.mark.usefixtures("clean_result_cache")
class TestPoisonedCacheIsCaught:
    """A corrupted result-cache row must surface as a mismatch and exit 1."""

    def poisoned_run(self, service, argv, tmp_path, capsys):
        port, stop = serve_in_thread(service)
        try:
            argv = ["--port", str(port), *argv]
            assert loadgen_main(argv) == 0  # warms the result cache
            assert RESULT_CACHE.poison() is not None
            out = tmp_path / "report.json"
            code = loadgen_main(argv + ["--report-out", str(out), "--shutdown"])
        finally:
            stop()
        assert "CONFORMANCE FAILURE" in capsys.readouterr().out
        return code, json.loads(out.read_text())

    def test_static_run(self, tmp_path, capsys):
        code, report = self.poisoned_run(
            make_service(result_cache=True),
            ["--requests", "40", "--concurrency", "4", "--seed", "5", "--smoke"],
            tmp_path,
            capsys,
        )
        assert code == 1
        assert report["mismatches"] >= 1
        assert report["first_mismatch"]
        assert report["failed"] == 0

    def test_run_with_train_ops(self, tmp_path, capsys):
        # A snapshot interval the run never reaches keeps the alias on
        # one fingerprint, so the second run replays through the cache.
        service = make_trained_service(snapshot_every=10_000, result_cache=True)
        code, report = self.poisoned_run(
            service,
            ["--requests", "40", "--concurrency", "4", "--seed", "5",
             "--train-every", "4"],
            tmp_path,
            capsys,
        )
        assert code == 1
        assert report["train_ops"] == 10
        assert report["models_served"] == 1
        assert report["mismatches"] >= 1
        assert report["first_mismatch"]
        assert report["failed"] == 0
