"""Lean serving start-up: the frontend never parses a model.

``build_service`` builds an empty worker pool first, then registers the
demo and ``--model-file`` models through the service: a builder process
that worker 0 forks parses each one once and builds its served program,
which the service ships to the workers as a ``load``; it returns once
they are warm.  A model file is registered from its own text and kept
as written.  Workers never parse.  A worker's ready message lists no
models (pinned by
``tests/serve/test_pool.py::TestEngines::test_ready_reports_warmups``).
"""

import argparse
import functools
import gc
import json
import multiprocessing as mp
import os
import pickle
import sys
import threading
import time
import weakref

import pytest

from repro.ir.program import same_structure
from repro.network import serialize
from repro.network.graph import NetworkError
from repro.serve import pool as pool_module
from repro.serve import worker as worker_module
from repro.serve.demo import demo_column, demo_volleys
from repro.serve.protocol import ServeError
from repro.serve.registry import ModelRegistry
from repro.serve.cli import add_serve_arguments
from repro.serve.server import _handle_model_doc, build_service
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
        # The replacement started empty, reported ready on the loop and
        # then loaded both models.
        assert [op for gen, op in replies if gen == 1 and op != "pong"] == [
            "ready",
            "loaded",
            "loaded",
        ]
        assert pool.warmups() == [2]
        assert_serves_byte_identically(service, seed=2)


def counting_parses(monkeypatch):
    """Count ``serialize.loads`` calls outside the frontend; refuse them in it.

    The patch is made before the pool forks worker 0, so worker 0 and
    the builders it forks inherit it; the count lives in shared memory.
    """
    frontend = os.getpid()
    count = mp.Value("i", 0, lock=False)
    loads = serialize.loads

    def counting_loads(document):
        if os.getpid() == frontend:
            raise AssertionError("the frontend parsed a document")
        count.value += 1
        return loads(document)

    monkeypatch.setattr(serialize, "loads", counting_loads)
    return count


class TestModelFileText:
    """A ``--model-file`` is registered from its own text, parsed once."""

    def test_file_is_parsed_once_and_served_as_written(self, monkeypatch, model_file):
        text = model_file.read_text(encoding="utf-8")
        model_id = serialize.loads(text).fingerprint()
        dumped = []
        dumps = serialize.dumps

        def counting_dumps(network, **kwargs):
            dumped.append(network.fingerprint())
            return dumps(network, **kwargs)

        parsed = counting_parses(monkeypatch)
        monkeypatch.setattr(serialize, "dumps", counting_dumps)
        service = build_service(
            serve_args("--smoke", "--workers", "1", "--model-file", str(model_file))
        )
        try:
            # Collections are paused while models load, and only then.
            assert gc.isenabled()
            # One parse per model (the demo column's and the file's),
            # each in its builder; the file's text is not re-serialized.
            assert parsed.value == 2
            assert model_id not in dumped
            monkeypatch.undo()
            entry = service.registry.resolve(model_id)
            assert entry.document == text
            reply = _handle_model_doc(service, {"op": "model_doc", "model": model_id})
            assert reply["ok"] and reply["model"] == model_id
            assert reply["document"] == text
            assert_serves_byte_identically(service, seed=4)
        finally:
            service.close()

    def test_tampered_fingerprint_fails_start_up(self, tmp_path, model_file):
        data = json.loads(model_file.read_text(encoding="utf-8"))
        data["fingerprint"] = "0" * 64
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        before = serve_workers()
        with pytest.raises(NetworkError, match="fingerprint mismatch"):
            build_service(
                serve_args("--smoke", "--workers", "1", "--model-file", str(path))
            )
        assert serve_workers() <= before
        assert gc.isenabled()

    def test_hand_written_document_without_fingerprint_serves(self, tmp_path):
        text = """{
  "format": "repro.network/1",
  "name": "hand-written",
  "nodes": [
    {"kind": "input", "name": "a"},
    {"kind": "input", "name": "b"},
    {"kind": "inc", "sources": [0], "amount": 2},
    {"kind": "min", "sources": [1, 2]},
    {"kind": "lt", "sources": [3, 1]}
  ],
  "outputs": {"first": 3, "early": 4}
}
"""
        path = tmp_path / "hand.json"
        path.write_text(text, encoding="utf-8")
        service = build_service(
            serve_args("--smoke", "--workers", "1", "--model-file", str(path))
        )
        try:
            model_id = serialize.loads(text).fingerprint()
            assert service.registry.resolve(model_id).document == text
            assert_serves_byte_identically(service, seed=5)
        finally:
            service.close()


def load_program_failing_for(monkeypatch, bad_id, *, delay_s=0.0):
    """Patch the worker's model load; forked workers inherit the patch.

    Loading *bad_id* raises, as a plan compile that fails on a valid
    program would; with *delay_s* every load first sleeps that long
    instead.
    """
    load_program = worker_module.load_program

    def patched(model_id, *load):
        time.sleep(delay_s)
        if model_id == bad_id:
            raise RuntimeError("plan compile crashed")
        return load_program(model_id, *load)

    monkeypatch.setattr(worker_module, "load_program", patched)


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


class TestParseOnce:
    """A model is parsed once: in a builder, or in-process by an inline pool."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """Every ``serialize.loads`` call, by caller.

        ``"direct"`` holds the frontend's parses :meth:`TNNService.direct`
        makes to rebuild its oracle network, ``"register"`` its other
        ones, and ``"builder"`` counts the parses of the processes
        worker 0 forks (they inherit the patch; the count lives in
        shared memory).
        """
        frontend = os.getpid()
        calls = {"register": [], "direct": [], "builder": mp.Value("i", 0, lock=False)}
        loads = serialize.loads

        def counting_loads(document):
            if os.getpid() != frontend:
                calls["builder"].value += 1
                return loads(document)
            direct = sys._getframe(1).f_code is TNNService.direct.__code__
            calls["direct" if direct else "register"].append(document)
            return loads(document)

        monkeypatch.setattr(serialize, "loads", counting_loads)
        return calls

    @staticmethod
    def counts(parses):
        """``(frontend registration parses, builder parses, direct parses)``."""
        return (
            len(parses["register"]), parses["builder"].value, len(parses["direct"])
        )

    @pytest.fixture(params=["inline", "process"])
    def service(self, request, parses):
        # After ``parses``: the workers must inherit the patch.
        if request.param == "inline":
            pool = pool_module.InlineWorkerPool({})
        else:
            pool = pool_module.ProcessWorkerPool({}, n_workers=1)
        service = TNNService(ModelRegistry(), pool)
        yield service
        service.close()

    @pytest.mark.parametrize("form", ["document", "network"])
    def test_one_parse_per_registration(self, service, parses, form):
        """A document costs its one parse; a network, its round-trip check."""
        network = demo_column(3, smoke=True)[0]
        model = serialize.dumps(network) if form == "document" else network
        entry = service.register(model)
        service.pool.wait_loaded([entry.model_id])
        inline = isinstance(service.pool, pool_module.InlineWorkerPool)
        assert self.counts(parses)[:2] == ((1, 0) if inline else (0, 1))
        assert_serves_byte_identically(service, seed=6)
        assert self.counts(parses) == ((1, 0, 1) if inline else (0, 1, 1))

    def test_replacement_worker_is_sent_programs(self, parses):
        service = TNNService(
            ModelRegistry(), pool_module.ProcessWorkerPool({}, n_workers=1)
        )
        try:
            entry = service.register(demo_column(3, smoke=True)[0])
            service.pool.wait_loaded([entry.model_id])
            pool = service.pool
            ((model_id, (fingerprint, payload)),) = pool._programs.items()
            assert (model_id, fingerprint) == (entry.model_id, entry.program.fingerprint())
            # The builder's bytes, shipped as they came.
            assert payload is entry.payload
            assert same_structure(pickle.loads(payload), entry.program)
            pool.inject_crash(0)
            waited = threading.Event()
            for _ in range(400):
                if pool.restarts == 1 and pool.alive_count() == 1:
                    break
                waited.wait(timeout=0.05)
            assert pool.restarts == 1
            pool.wait_loaded([entry.model_id])
            assert pool.warmups() == [1]
            assert_serves_byte_identically(service, seed=7)
            assert self.counts(parses) == (0, 1, 1)
        finally:
            service.close()


class TestNoNetworkKept:
    """The frontend keeps a model's document and program, not its network.

    With a process pool it never parses one; an inline pool's parse is
    freed once the program is built.
    """

    @pytest.fixture(params=["inline", "process"])
    def service(self, request):
        if request.param == "inline":
            pool = pool_module.InlineWorkerPool({})
        else:
            pool = pool_module.ProcessWorkerPool({}, n_workers=1)
        service = TNNService(ModelRegistry(), pool)
        yield service
        service.close()

    @pytest.fixture
    def parsed(self, monkeypatch):
        """A weakref to every network ``serialize.loads`` builds."""
        refs = []
        loads = serialize.loads

        def recording_loads(document):
            network = loads(document)
            refs.append(weakref.ref(network))
            return network

        monkeypatch.setattr(serialize, "loads", recording_loads)
        return refs

    def test_network_parsed_from_a_document_is_freed(self, service, parsed):
        network = demo_column(4, smoke=True)[0]
        text, nodes = serialize.dumps(network), len(network.nodes)
        del network
        entry = service.register(text)
        gc.collect()
        inline = isinstance(service.pool, pool_module.InlineWorkerPool)
        assert len(parsed) == inline and all(ref() is None for ref in parsed)
        service.pool.wait_loaded([entry.model_id])
        assert entry.document == text
        assert entry.describe()["nodes"] == nodes
        assert_serves_byte_identically(service, seed=8)

    def test_network_the_caller_dropped_is_freed(self, service, parsed):
        network = demo_column(4, smoke=True)[0]
        ref, nodes = weakref.ref(network), len(network.nodes)
        entry = service.register(network)
        del network
        gc.collect()
        assert ref() is None
        # The round trip's parse, in-process only with an inline pool.
        inline = isinstance(service.pool, pool_module.InlineWorkerPool)
        assert len(parsed) == inline and all(ref() is None for ref in parsed)
        service.pool.wait_loaded([entry.model_id])
        assert entry.describe()["nodes"] == nodes
        assert_serves_byte_identically(service, seed=8)


def wait_replaced(pool, restarts, alive):
    """Wait until *pool* has made *restarts* restarts and has *alive* workers."""
    waited = threading.Event()
    for _ in range(600):
        if pool.restarts == restarts and pool.alive_count() == alive:
            return
        waited.wait(timeout=0.05)
    raise AssertionError(f"pool did not reach {restarts} restart(s), {alive} alive")


class TestFrontendBuildsNothing:
    """With a process pool every build runs in a builder worker 0 forks."""

    def test_build_path_is_never_called_in_the_frontend(self, monkeypatch, model_file):
        from repro.ir import passes, program, sorters
        from repro.serve import registry

        frontend = os.getpid()

        def refused(function):
            def guarded(*args, **kwargs):
                if os.getpid() == frontend:
                    raise AssertionError(f"the frontend called {function.__name__}")
                return function(*args, **kwargs)

            return guarded

        # The registry's names first: reading one the first time caches
        # the function it resolves to.
        for module, name in [
            (registry, "lower"),
            (registry, "group_sorters"),
            (registry, "optimize_program"),
            (serialize, "loads"),
            (program, "lower"),
            (sorters, "group_sorters"),
            (passes, "optimize_program"),
        ]:
            monkeypatch.setattr(module, name, refused(getattr(module, name)))
        service = build_service(
            serve_args(
                "--smoke", "--workers", "2", "--no-result-cache",
                "--model-file", str(model_file),
            )
        )
        try:
            network = demo_column(9, smoke=True)[0]
            entry = service.register(network)
            service.pool.wait_loaded([entry.model_id])
            volleys = demo_volleys(entry.input_arity, 16, seed=9)
            served = [service.submit(entry.model_id, v).result(timeout=20) for v in volleys]
            # A sibling, then worker 0, crash and are replaced; models
            # registered after each replacement still build off-frontend.
            pool = service.pool
            pool.inject_crash(1)
            wait_replaced(pool, 1, 2)
            pool.inject_crash(0)
            wait_replaced(pool, 2, 2)
            later = service.register(demo_column(10, smoke=True)[0])
            pool.wait_loaded([later.model_id])
            monkeypatch.undo()
            assert served == service.direct(entry.model_id, volleys)
            assert_serves_byte_identically(service, seed=11)
        finally:
            service.close()


class TestBuilderFailure:
    """A builder that dies fails its registration, not worker 0."""

    def test_killed_builder_is_a_serve_error(self, monkeypatch):
        frontend = os.getpid()
        dying = mp.Value("i", 1, lock=False)
        build_program = worker_module.build_program

        def build_or_die(packed):
            if os.getpid() != frontend and dying.value:
                os._exit(9)
            return build_program(packed)

        monkeypatch.setattr(worker_module, "build_program", build_or_die)
        service = TNNService(
            ModelRegistry(), pool_module.ProcessWorkerPool({}, n_workers=1)
        )
        try:
            with pytest.raises(ServeError, match="model builder exited without a reply"):
                service.register(demo_column(4, smoke=True)[0])
            assert len(service.registry) == 0
            dying.value = 0
            entry = service.register(demo_column(4, smoke=True)[0], name="col")
            service.pool.wait_loaded([entry.model_id])
            assert (service.pool.restarts, service.pool.alive_count()) == (0, 1)
            assert_serves_byte_identically(service, seed=12)
        finally:
            service.close()


class TestWarmWorker:
    def test_import_heap_is_frozen_before_the_first_load(self, monkeypatch):
        """The first ``load``'s collection does not walk the engine's import heap."""

        def report_freeze_count(model_id, *load):
            raise RuntimeError(f"freeze count {gc.get_freeze_count()}")

        monkeypatch.setattr(worker_module, "load_program", report_freeze_count)
        pool = pool_module.ProcessWorkerPool({}, n_workers=1)
        try:
            program = ModelRegistry().register(demo_column(3, smoke=True)[0]).program
            pool.add_model("f" * 64, program)
            assert pool.wait_warm(timeout=20.0)
            (reason,) = pool.failed_models().values()
            assert int(reason.rsplit(" ", 1)[1]) > 0, reason
        finally:
            pool.shutdown()
