"""Tests for the sharded worker pool (worker body, process pool, inline)."""

import gc
import multiprocessing as mp
import pickle
import threading

import numpy as np
import pytest

from repro.ir.program import Program
from repro.network import serialize
from repro.network.compile_plan import INF_I64, evaluate_batch
from repro.serve.demo import demo_column
from repro.serve.pool import (
    InlineWorkerPool,
    Job,
    ProcessWorkerPool,
    _decode_params,
    _worker_main,
)
from repro.serve.protocol import ServeError
from repro.serve.registry import ModelRegistry


@pytest.fixture(scope="module")
def registry():
    reg = ModelRegistry()
    reg.register(demo_column(0, smoke=True)[0], name="demo")
    return reg


def demo_network(registry):
    """The demo model's network, rebuilt from its document."""
    return serialize.loads(registry.resolve("demo").document)


@pytest.fixture(scope="module")
def model_id(registry):
    return registry.resolve("demo").model_id


def served(network):
    """*network*'s served program, built as the registry builds it."""
    return ModelRegistry().register(network).program


def load_message(model_id, program, fingerprint=None):
    """A ``load`` message as a process pool sends it."""
    named = program.fingerprint() if fingerprint is None else fingerprint
    return ("load", model_id, named, pickle.dumps(program, pickle.HIGHEST_PROTOCOL))


def mislabeled(program):
    """A copy of *program* whose cached fingerprint is wrong.

    A pool names the fingerprint it reads off the program, and the
    cache does not travel: the worker recomputes the real one, as it
    would for a program corrupted after it was fingerprinted.
    """
    copy = Program(
        program.nodes, program.outputs, name=program.name, provenance=program.provenance
    )
    copy._fingerprint = "0" * 64
    return copy


def encoded_volleys(network, volleys):
    from repro.network.compile_plan import encode_volleys

    return encode_volleys(volleys, arity=len(network.input_ids))


class TestDecodeParams:
    def test_sentinel_roundtrip(self):
        from repro.core.value import INF

        assert _decode_params({"mu": INF_I64, "nu": 0}) == {"mu": INF, "nu": 0}


class TestWorkerBody:
    """Run ``_worker_main`` in a thread over a real duplex pipe.

    This covers the exact code a child process executes — unpickle,
    verify fingerprint, warm, serve — inside this process where coverage
    sees it.
    """

    def run_worker(self, registry):
        parent, child = mp.Pipe(duplex=True)
        thread = threading.Thread(target=_worker_main, args=(child,), daemon=True)
        thread.start()
        ready = parent.recv()
        assert ready[0] == "ready"
        for warmups, (model_id, program) in enumerate(
            registry.programs().items(), 1
        ):
            parent.send(load_message(model_id, program))
            assert parent.recv() == ("loaded", model_id, warmups)
        return parent, thread

    def test_ready_lists_models(self, registry, model_id):
        parent, thread = self.run_worker(registry)
        try:
            parent.send(("ping", 42))
            op, token, delta = parent.recv()
            assert (op, token) == ("pong", 42)
            assert set(delta) >= {"counters", "timers"}
        finally:
            parent.send(("stop",))
            thread.join(timeout=5)

    def test_eval_matches_direct(self, registry, model_id):
        network = demo_network(registry)
        matrix = encoded_volleys(network, [(0, 1), (2, 3)])
        parent, thread = self.run_worker(registry)
        try:
            parent.send(("eval", 7, model_id, matrix, {}, 0))
            op, job_id, result, extras = parent.recv()
            assert (op, job_id) == ("ok", 7)
            # The first reply piggybacks the worker's metrics snapshot.
            assert set(extras) == {"metrics"}
            np.testing.assert_array_equal(
                result, evaluate_batch(network, matrix)
            )
        finally:
            parent.send(("stop",))
            thread.join(timeout=5)

    def test_unknown_model_is_an_error_reply(self, registry):
        parent, thread = self.run_worker(registry)
        try:
            parent.send(("eval", 1, "f" * 64, np.zeros((1, 2), np.int64), {}, 0))
            op, job_id, reason, _extras = parent.recv()
            assert op == "err" and "not loaded" in reason
        finally:
            parent.send(("stop",))
            thread.join(timeout=5)

    def test_load_op_adds_model(self, registry):
        network, _ = demo_column(5, smoke=True)
        parent, thread = self.run_worker(registry)
        try:
            parent.send(load_message(network.fingerprint(), served(network)))
            op, model_id, warmups = parent.recv()
            assert (op, model_id) == ("loaded", network.fingerprint())
            assert warmups == 2
            matrix = encoded_volleys(network, [(1, 2)])
            parent.send(("eval", 2, network.fingerprint(), matrix, {}, 0))
            op, _job, result, _extras = parent.recv()
            assert op == "ok"
            np.testing.assert_array_equal(result, evaluate_batch(network, matrix))
        finally:
            parent.send(("stop",))
            thread.join(timeout=5)

    def test_unknown_op_reported(self, registry):
        parent, thread = self.run_worker(registry)
        try:
            parent.send(("mystery",))
            op, _job, reason, _extras = parent.recv()
            assert op == "err" and "mystery" in reason
        finally:
            parent.send(("stop",))
            thread.join(timeout=5)

    def test_fingerprint_mismatch_rejected(self, registry, model_id):
        """A failing load gets a typed reply; the worker keeps serving."""
        network, _ = demo_column(6, smoke=True)
        program = served(network)
        parent, thread = self.run_worker(registry)
        try:
            parent.send(load_message(network.fingerprint(), program, "0" * 64))
            op, bad_id, reason = parent.recv()
            assert (op, bad_id) == ("load-failed", network.fingerprint())
            assert "does not match 000000000000" in reason
            # Bytes that do not unpickle are refused the same way.
            parent.send(("load", "f" * 64, program.fingerprint(), b"\x80\x05junk"))
            op, bad_id, reason = parent.recv()
            assert (op, bad_id) == ("load-failed", "f" * 64)
            demo = demo_network(registry)
            matrix = encoded_volleys(demo, [(0, 1)])
            parent.send(("eval", 3, model_id, matrix, {}, 0))
            op, _job, result, _extras = parent.recv()
            assert op == "ok"
            np.testing.assert_array_equal(result, evaluate_batch(demo, matrix))
            # Collections, paused during the load, are back on after it.
            assert gc.isenabled()
        finally:
            parent.send(("stop",))
            thread.join(timeout=5)


def _completion_recorder():
    done = threading.Event()
    box = {}

    def on_done(result):
        box["result"] = result
        done.set()

    def on_fail(reason):
        box["reason"] = reason
        done.set()

    return done, box, on_done, on_fail


class TestProcessPool:
    def test_eval_and_crash_restart(self, registry, model_id):
        network = demo_network(registry)
        pool = ProcessWorkerPool(registry.programs(), n_workers=2)
        try:
            assert pool.alive_count() == 2
            assert list(pool._programs) == [model_id]
            from repro.core.value import INF

            matrix = encoded_volleys(network, [(0, 1), (2, INF)])

            done, box, on_done, on_fail = _completion_recorder()
            pool.submit(Job(1, model_id, matrix, {}, on_done, on_fail))
            assert done.wait(timeout=20), "no completion from worker"
            np.testing.assert_array_equal(
                box["result"], evaluate_batch(network, matrix)
            )

            # Crash a worker; the pool must notice and restart it.
            pool.inject_crash(0)
            deadline = threading.Event()
            for _ in range(200):
                if pool.restarts >= 1 and pool.alive_count() == 2:
                    break
                deadline.wait(timeout=0.05)
            assert pool.restarts >= 1
            assert pool.alive_count() == 2

            # The restarted worker serves correctly.
            done2, box2, on_done2, on_fail2 = _completion_recorder()
            pool.submit(Job(2, model_id, matrix, {}, on_done2, on_fail2))
            assert done2.wait(timeout=20)
            np.testing.assert_array_equal(
                box2["result"], evaluate_batch(network, matrix)
            )
        finally:
            pool.shutdown()

    def test_worker_marked_dead_by_a_failed_send_is_still_reaped(
        self, registry, model_id
    ):
        """A failed send marks a worker dead; its in-flight jobs still fail over."""
        pool = ProcessWorkerPool(registry.programs(), n_workers=1)
        try:
            done, box, on_done, on_fail = _completion_recorder()
            matrix = np.zeros((1, 2), np.int64)
            with pool._lock:
                worker = pool._workers[0]
                worker.alive = False  # what submit does on a broken pipe
                worker.jobs[1] = Job(1, model_id, matrix, {}, on_done, on_fail)
            # Let the collector re-read its worker list, then kill the worker.
            done.wait(timeout=0.5)
            worker.process.kill()
            assert done.wait(timeout=20), "orphaned job never failed over"
            assert "crashed" in box["reason"]
            waited = threading.Event()
            for _ in range(400):
                if pool.restarts == 1 and pool.alive_count() == 1:
                    break
                waited.wait(timeout=0.05)
            assert (pool.restarts, pool.alive_count()) == (1, 1)
        finally:
            pool.shutdown()

    def test_submit_after_shutdown_rejected(self, registry, model_id):
        pool = ProcessWorkerPool(registry.programs(), n_workers=1)
        pool.shutdown()
        done, _box, on_done, on_fail = _completion_recorder()
        with pytest.raises(ServeError, match="shutting down"):
            pool.submit(
                Job(1, model_id, np.zeros((1, 2), np.int64), {}, on_done, on_fail)
            )

    def test_needs_at_least_one_worker(self, registry):
        with pytest.raises(ValueError, match="at least one"):
            ProcessWorkerPool(registry.programs(), n_workers=0)


class TestLoadFailure:
    def test_failing_load_keeps_the_worker_serving(self, registry, model_id):
        """A program that does not load is refused, not fatal."""
        from repro.obs.metrics import METRICS

        network = demo_network(registry)
        bad_program = mislabeled(served(demo_column(6, smoke=True)[0]))
        failures = METRICS.counter("serve.worker.failures")
        pool = ProcessWorkerPool(registry.programs(), n_workers=1)
        try:
            pool.add_model("0" * 64, bad_program)
            assert pool.wait_warm(timeout=20.0)
            assert pool.restarts == 0
            assert pool.warmups() == [1]
            assert METRICS.counter("serve.worker.failures") == failures + 1
            assert list(pool.failed_models()) == ["0" * 64]
            assert "does not match 000000000000" in pool.failed_models()["0" * 64]
            # The refused program left the replay set.
            assert list(pool._programs) == [model_id]
            pool.wait_loaded([model_id])
            with pytest.raises(ServeError, match="did not load: ValueError"):
                pool.wait_loaded([model_id, "0" * 64])
            matrix = encoded_volleys(network, [(0, 1), (3, 2)])
            done, box, on_done, on_fail = _completion_recorder()
            pool.submit(Job(1, model_id, matrix, {}, on_done, on_fail))
            assert done.wait(timeout=20)
            np.testing.assert_array_equal(box["result"], evaluate_batch(network, matrix))

            # A replacement loads only the good model.
            pool.inject_crash(0)
            waited = threading.Event()
            for _ in range(400):
                if pool.restarts == 1 and pool.alive_count() == 1:
                    break
                waited.wait(timeout=0.05)
            assert pool.wait_warm(timeout=20.0)
            assert (pool.restarts, pool.warmups()) == (1, [1])
        finally:
            pool.shutdown()

    def test_constructor_raises_when_a_program_does_not_load(self):
        bad_program = mislabeled(served(demo_column(6, smoke=True)[0]))
        before = set(mp.active_children())
        with pytest.raises(ServeError, match="did not load: ValueError"):
            ProcessWorkerPool({"0" * 64: bad_program}, n_workers=1)
        assert set(mp.active_children()) <= before

    def test_worker_exit_before_ready_is_a_serve_error(self, monkeypatch):
        import os

        import repro.serve.pool as pool_module

        monkeypatch.setattr(pool_module, "_worker_main", lambda conn: os._exit(1))
        with pytest.raises(ServeError, match="exited before ready"):
            ProcessWorkerPool({}, n_workers=1)


class TestWarmBarrier:
    def test_wait_warm_idle_pool(self, registry):
        pool = ProcessWorkerPool(registry.programs(), n_workers=2)
        try:
            assert pool.wait_warm(timeout=20.0)
        finally:
            pool.shutdown()

    def test_wait_warm_after_load_serves_immediately(self, registry):
        network, _ = demo_column(8, smoke=True)
        pool = ProcessWorkerPool(registry.programs(), n_workers=2)
        try:
            pool.add_model(network.fingerprint(), served(network))
            # The barrier orders behind the pipelined load on every
            # worker (FIFO pipes), so a post-barrier eval cannot race it.
            assert pool.wait_warm(timeout=20.0)
            matrix = encoded_volleys(network, [(1, 2)])
            done, box, on_done, on_fail = _completion_recorder()
            pool.submit(
                Job(1, network.fingerprint(), matrix, {}, on_done, on_fail)
            )
            assert done.wait(timeout=20)
            np.testing.assert_array_equal(
                box["result"], evaluate_batch(network, matrix)
            )
        finally:
            pool.shutdown()

    def test_inline_pool_is_always_warm(self, registry):
        pool = InlineWorkerPool(registry.programs())
        assert pool.wait_warm() is True


class TestEngines:
    def test_ready_reports_warmups(self, registry):
        """A worker starts empty; each ``load`` reports the running count."""
        parent, child = mp.Pipe(duplex=True)
        thread = threading.Thread(target=_worker_main, args=(child,), daemon=True)
        thread.start()
        try:
            op, _pid, models, warmups = parent.recv()
            assert (op, models, warmups) == ("ready", [], 0)
            (model_id, program), = registry.programs().items()
            parent.send(load_message(model_id, program))
            assert parent.recv() == ("loaded", model_id, 1)
        finally:
            parent.send(("stop",))
            thread.join(timeout=5)

    def test_inline_pool_warmups_and_engine(self, registry):
        from repro.serve.service import TNNService

        pool = InlineWorkerPool(registry.programs())
        assert pool.warmups() == [1]
        service = TNNService(registry, pool)
        try:
            stats = service.stats()
        finally:
            service.close()
        assert stats["engine"] == "int64"
        assert stats["warmups"] == {"per_worker": [1], "total": 1}


class TestInlinePool:
    def test_eval_matches_direct(self, registry, model_id):
        network = demo_network(registry)
        pool = InlineWorkerPool(registry.programs())
        matrix = encoded_volleys(network, [(3, 0)])
        done, box, on_done, on_fail = _completion_recorder()
        pool.submit(Job(1, model_id, matrix, {}, on_done, on_fail))
        assert done.is_set()  # synchronous
        np.testing.assert_array_equal(box["result"], evaluate_batch(network, matrix))

    def test_int64_engine_eval(self, registry, model_id):
        network = demo_network(registry)
        pool = InlineWorkerPool(registry.programs())
        matrix = encoded_volleys(network, [(2, 5)])
        done, box, on_done, on_fail = _completion_recorder()
        pool.submit(Job(1, model_id, matrix, {}, on_done, on_fail))
        np.testing.assert_array_equal(box["result"], evaluate_batch(network, matrix))

    def test_fingerprint_mismatch_rejected(self, registry):
        """A mismatched document is refused by the registry, before any pool.

        The inline pool is handed the registry's own program objects, so
        nothing travels that could be corrupted on the way.
        """
        from repro.network.graph import NetworkError
        from repro.serve.service import TNNService

        text = serialize.dumps(demo_column(6, smoke=True)[0])
        bad = text.replace('"fingerprint": "', '"fingerprint": "0', 1)
        pool = InlineWorkerPool(registry.programs())
        service = TNNService(ModelRegistry(), pool)
        try:
            with pytest.raises(NetworkError, match="fingerprint mismatch"):
                service.register(bad)
            assert len(service.registry) == 0
            assert pool.warmups() == [1]
        finally:
            service.close()

    def test_unknown_model_fails_job(self, registry):
        pool = InlineWorkerPool(registry.programs())
        done, box, on_done, on_fail = _completion_recorder()
        pool.submit(Job(1, "f" * 64, np.zeros((1, 2), np.int64), {}, on_done, on_fail))
        assert "not loaded" in box["reason"]

    def test_add_model(self, registry):
        network, _ = demo_column(7, smoke=True)
        program = served(network)
        pool = InlineWorkerPool(registry.programs())
        pool.add_model(network.fingerprint(), program)
        # The inline pool serves the registry's own program object.
        assert pool._worker.programs[network.fingerprint()] is program
        matrix = encoded_volleys(network, [(1, 1)])
        done, box, on_done, on_fail = _completion_recorder()
        pool.submit(Job(1, network.fingerprint(), matrix, {}, on_done, on_fail))
        np.testing.assert_array_equal(box["result"], evaluate_batch(network, matrix))

    def test_no_crashable_workers(self, registry):
        pool = InlineWorkerPool(registry.programs())
        with pytest.raises(RuntimeError, match="no crashable"):
            pool.inject_crash(0)

    def test_shutdown_stops_admission(self, registry, model_id):
        pool = InlineWorkerPool(registry.programs())
        pool.shutdown()
        assert pool.alive_count() == 0
        done, _box, on_done, on_fail = _completion_recorder()
        with pytest.raises(ServeError, match="shutting down"):
            pool.submit(
                Job(1, model_id, np.zeros((1, 2), np.int64), {}, on_done, on_fail)
            )
