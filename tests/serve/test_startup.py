"""Lean serving start-up: the pool forks before any model is parsed.

``build_service`` builds an empty worker pool first, then registers the
demo and ``--model-file`` models through the service, which ships each
one to the workers as a ``load``; it returns once they are warm.  A
worker's ready message lists no models (pinned by
``tests/serve/test_pool.py::TestEngines::test_ready_reports_warmups``).
"""

import argparse
import functools
import multiprocessing as mp
import threading
import time

import pytest

from repro.network import serialize
from repro.serve import pool as pool_module
from repro.serve.demo import demo_column, demo_volleys
from repro.serve.protocol import ServeError
from repro.serve.registry import ModelRegistry
from repro.serve.server import add_serve_arguments, build_service
from repro.serve.service import TNNService
from repro.testing import check_served


def serve_args(*argv: str) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    add_serve_arguments(parser)
    return parser.parse_args(list(argv))


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "column.json"
    serialize.save(demo_column(3, smoke=True)[0], path)
    return path


@pytest.fixture
def started(monkeypatch, model_file):
    """A one-worker service from ``--model-file``, with its start-up order."""
    order = []
    pool_init = pool_module.ProcessWorkerPool.__init__
    register = ModelRegistry.register

    def recording_init(self, *args, **kwargs):
        pool_init(self, *args, **kwargs)
        order.append("pool")

    def recording_register(self, *args, **kwargs):
        order.append("register")
        return register(self, *args, **kwargs)

    monkeypatch.setattr(pool_module.ProcessWorkerPool, "__init__", recording_init)
    monkeypatch.setattr(ModelRegistry, "register", recording_register)
    service = build_service(
        serve_args(
            "--smoke", "--workers", "1", "--no-result-cache",
            "--model-file", str(model_file),
        )
    )
    try:
        yield service, order
    finally:
        service.close()


def assert_serves_byte_identically(service, seed):
    for entry in service.registry.entries():
        volleys = demo_volleys(entry.input_arity, 24, seed=seed)
        report = check_served(service, entry.model_id, volleys)
        assert report.byte_identical and report.ok == 24, report.summary()


class TestLeanStartup:
    def test_pool_is_built_before_any_model_is_registered(self, started):
        _service, order = started
        assert order == ["pool", "register", "register"]

    def test_every_registered_model_is_warm_on_return(self, started):
        service, _order = started
        assert len(service.registry) == 2
        assert service.stats()["warmups"]["total"] == 2

    def test_eval_is_byte_identical_to_evaluate_batch(self, started):
        service, _order = started
        assert_serves_byte_identically(service, seed=1)

    def test_replacement_worker_gets_models_by_replayed_loads(
        self, started, monkeypatch
    ):
        service, _order = started
        pool = service.pool
        replies = []
        deliver = pool_module.ProcessWorkerPool._deliver

        def recording_deliver(self, worker, message):
            replies.append((worker.generation, message[0]))
            deliver(self, worker, message)

        monkeypatch.setattr(pool_module.ProcessWorkerPool, "_deliver", recording_deliver)
        pool.inject_crash(0)
        waited = threading.Event()
        for _ in range(400):
            if pool.restarts == 1 and pool.alive_count() == 1:
                break
            waited.wait(timeout=0.05)
        assert pool.restarts == 1
        assert pool.wait_warm(timeout=30.0)
        # The replacement started empty and loaded both models.
        assert [op for gen, op in replies if gen == 1 and op != "pong"] == [
            "loaded",
            "loaded",
        ]
        assert pool.warmups() == [2]
        assert_serves_byte_identically(service, seed=2)


def load_program_failing_for(monkeypatch, bad_id, *, delay_s=0.0):
    """Patch the worker's model load; forked workers inherit the patch.

    Loading *bad_id* raises, as an optimizer crash on a valid network
    would; with *delay_s* every load first sleeps that long instead.
    """
    load_program = pool_module.load_program

    def patched(model_id, document):
        time.sleep(delay_s)
        if model_id == bad_id:
            raise RuntimeError("optimizer crashed")
        return load_program(model_id, document)

    monkeypatch.setattr(pool_module, "load_program", patched)


def serve_workers():
    return {p for p in mp.active_children() if p.name.startswith("serve-worker")}


class TestFailedStartup:
    def test_model_that_does_not_load_fails_start_up(self, monkeypatch, model_file):
        """The server refuses to start without every registered model."""
        bad_id = serialize.load(model_file).fingerprint()
        load_program_failing_for(monkeypatch, bad_id)
        before = serve_workers()
        with pytest.raises(ServeError, match="did not load: RuntimeError"):
            build_service(
                serve_args("--smoke", "--workers", "1", "--model-file", str(model_file))
            )
        assert serve_workers() <= before

    def test_start_up_timeout_closes_the_service(self, monkeypatch, model_file):
        load_program_failing_for(monkeypatch, None, delay_s=3.0)
        monkeypatch.setattr(
            pool_module,
            "ProcessWorkerPool",
            functools.partial(pool_module.ProcessWorkerPool, start_timeout=1.0),
        )
        before = serve_workers()
        with pytest.raises(ServeError, match="did not load their models in 1s"):
            build_service(serve_args("--smoke", "--workers", "1"))
        assert serve_workers() <= before

    def test_promote_refuses_a_model_that_did_not_load(self, monkeypatch):
        good = demo_column(4, smoke=True)[0]
        bad = demo_column(5, smoke=True)[0]
        load_program_failing_for(monkeypatch, bad.fingerprint())
        service = TNNService(
            ModelRegistry(), pool_module.ProcessWorkerPool({}, n_workers=1)
        )
        try:
            service.register(good)
            assert service.promote("col@live", good.fingerprint())["warmed"]
            service.register(bad)
            with pytest.raises(ServeError, match="did not load: RuntimeError"):
                service.promote("col@live", bad.fingerprint())
            assert service.registry.aliases() == {"col@live": good.fingerprint()}
            volleys = demo_volleys(len(good.input_ids), 24, seed=3)
            report = check_served(service, "col@live", volleys)
            assert report.byte_identical and report.ok == 24, report.summary()
        finally:
            service.close()
