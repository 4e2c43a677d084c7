"""Tests for the sharded worker pool (worker body, process pool, inline)."""

import multiprocessing as mp
import threading

import numpy as np
import pytest

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


@pytest.fixture(scope="module")
def model_id(registry):
    return registry.resolve("demo").model_id


def encoded_volleys(network, volleys):
    from repro.network.compile_plan import encode_volleys

    return encode_volleys(volleys, arity=len(network.input_ids))


class TestDecodeParams:
    def test_sentinel_roundtrip(self):
        from repro.core.value import INF

        assert _decode_params({"mu": INF_I64, "nu": 0}) == {"mu": INF, "nu": 0}


class TestWorkerBody:
    """Run ``_worker_main`` in a thread over a real duplex pipe.

    This covers the exact code a child process executes — load, verify
    fingerprint, warm, serve — inside this process where coverage sees it.
    """

    def run_worker(self, registry):
        parent, child = mp.Pipe(duplex=True)
        thread = threading.Thread(
            target=_worker_main,
            args=(child, registry.documents(), True),
            daemon=True,
        )
        thread.start()
        ready = parent.recv()
        assert ready[0] == "ready"
        return parent, thread

    def test_ready_lists_models(self, registry, model_id):
        parent, thread = self.run_worker(registry)
        try:
            parent.send(("ping", 42))
            assert parent.recv() == ("pong", 42)
        finally:
            parent.send(("stop",))
            thread.join(timeout=5)

    def test_eval_matches_direct(self, registry, model_id):
        network = registry.resolve("demo").network
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
        from repro.network import serialize

        parent, thread = self.run_worker(registry)
        try:
            parent.send(("load", network.fingerprint(), serialize.dumps(network)))
            op, model_id, warmups = parent.recv()
            assert (op, model_id) == ("loaded", network.fingerprint())
            assert warmups == {"int64": 2}
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

    def test_fingerprint_mismatch_rejected(self, registry):
        from repro.network import serialize

        network, _ = demo_column(6, smoke=True)
        parent, child = mp.Pipe(duplex=True)
        with pytest.raises(ValueError, match="does not match model id"):
            _worker_main(child, {"0" * 64: serialize.dumps(network)}, True)


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
        network = registry.resolve("demo").network
        pool = ProcessWorkerPool(registry.documents(), n_workers=2)
        try:
            assert pool.alive_count() == 2
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

    def test_submit_after_shutdown_rejected(self, registry, model_id):
        pool = ProcessWorkerPool(registry.documents(), n_workers=1)
        pool.shutdown()
        done, _box, on_done, on_fail = _completion_recorder()
        with pytest.raises(ServeError, match="shutting down"):
            pool.submit(
                Job(1, model_id, np.zeros((1, 2), np.int64), {}, on_done, on_fail)
            )

    def test_needs_at_least_one_worker(self, registry):
        with pytest.raises(ValueError, match="at least one"):
            ProcessWorkerPool(registry.documents(), n_workers=0)


class TestWarmBarrier:
    def test_wait_warm_idle_pool(self, registry):
        pool = ProcessWorkerPool(registry.documents(), n_workers=2)
        try:
            assert pool.wait_warm(timeout=20.0)
        finally:
            pool.shutdown()

    def test_wait_warm_after_load_serves_immediately(self, registry):
        from repro.network import serialize

        network, _ = demo_column(8, smoke=True)
        pool = ProcessWorkerPool(registry.documents(), n_workers=2)
        try:
            pool.add_model(network.fingerprint(), serialize.dumps(network))
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
        pool = InlineWorkerPool(registry.documents())
        assert pool.wait_warm() is True


class TestEngines:
    def test_ready_reports_warmups(self, registry):
        parent, child = mp.Pipe(duplex=True)
        thread = threading.Thread(
            target=_worker_main,
            args=(child, registry.documents(), True),
            daemon=True,
        )
        thread.start()
        try:
            ready = parent.recv()
            assert ready[0] == "ready"
            assert ready[3] == {"int64": 1}
        finally:
            parent.send(("stop",))
            thread.join(timeout=5)

    def test_worker_auto_and_int64_policies_agree(self, registry, model_id):
        from repro.core.value import INF

        network = registry.resolve("demo").network
        matrix = encoded_volleys(network, [(0, 1), (2, 3), (INF, 0)])
        results = {}
        for engine in ("auto", "int64"):
            parent, child = mp.Pipe(duplex=True)
            thread = threading.Thread(
                target=_worker_main,
                args=(child, registry.documents(), True, engine),
                daemon=True,
            )
            thread.start()
            try:
                assert parent.recv()[0] == "ready"
                parent.send(("eval", 1, model_id, matrix, {}, 0))
                op, _job, result, _extras = parent.recv()
                assert op == "ok"
                results[engine] = result
            finally:
                parent.send(("stop",))
                thread.join(timeout=5)
        np.testing.assert_array_equal(results["auto"], results["int64"])
        np.testing.assert_array_equal(
            results["auto"], evaluate_batch(network, matrix)
        )

    def test_bad_engine_rejected(self, registry):
        with pytest.raises(ValueError, match="engine"):
            InlineWorkerPool(registry.documents(), engine="tpu")
        with pytest.raises(ValueError, match="engine"):
            ProcessWorkerPool(registry.documents(), engine="tpu")

    def test_inline_pool_warmups_and_engine(self, registry):
        pool = InlineWorkerPool(registry.documents())
        assert pool.engine == "int64"
        assert pool.warmups() == [{"int64": 1}]


class TestInlinePool:
    def test_eval_matches_direct(self, registry, model_id):
        network = registry.resolve("demo").network
        pool = InlineWorkerPool(registry.documents())
        matrix = encoded_volleys(network, [(3, 0)])
        done, box, on_done, on_fail = _completion_recorder()
        pool.submit(Job(1, model_id, matrix, {}, on_done, on_fail))
        assert done.is_set()  # synchronous
        np.testing.assert_array_equal(box["result"], evaluate_batch(network, matrix))

    def test_int64_engine_eval(self, registry, model_id):
        network = registry.resolve("demo").network
        pool = InlineWorkerPool(registry.documents(), engine="int64")
        matrix = encoded_volleys(network, [(2, 5)])
        done, box, on_done, on_fail = _completion_recorder()
        pool.submit(Job(1, model_id, matrix, {}, on_done, on_fail))
        np.testing.assert_array_equal(box["result"], evaluate_batch(network, matrix))

    def test_unknown_model_fails_job(self, registry):
        pool = InlineWorkerPool(registry.documents())
        done, box, on_done, on_fail = _completion_recorder()
        pool.submit(Job(1, "f" * 64, np.zeros((1, 2), np.int64), {}, on_done, on_fail))
        assert "not loaded" in box["reason"]

    def test_add_model(self, registry):
        from repro.network import serialize

        network, _ = demo_column(7, smoke=True)
        pool = InlineWorkerPool(registry.documents())
        pool.add_model(network.fingerprint(), serialize.dumps(network))
        matrix = encoded_volleys(network, [(1, 1)])
        done, box, on_done, on_fail = _completion_recorder()
        pool.submit(Job(1, network.fingerprint(), matrix, {}, on_done, on_fail))
        np.testing.assert_array_equal(box["result"], evaluate_batch(network, matrix))

    def test_no_crashable_workers(self, registry):
        pool = InlineWorkerPool(registry.documents())
        with pytest.raises(RuntimeError, match="no crashable"):
            pool.inject_crash(0)

    def test_shutdown_stops_admission(self, registry, model_id):
        pool = InlineWorkerPool(registry.documents())
        pool.shutdown()
        assert pool.alive_count() == 0
        done, _box, on_done, on_fail = _completion_recorder()
        with pytest.raises(ServeError, match="shutting down"):
            pool.submit(
                Job(1, model_id, np.zeros((1, 2), np.int64), {}, on_done, on_fail)
            )
