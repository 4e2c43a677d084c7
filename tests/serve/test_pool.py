"""Tests for the sharded worker pool (worker body, process pool, inline)."""

import gc
import multiprocessing as mp
import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.network import serialize
from repro.network.graph import Network
from repro.network.compile_plan import INF_I64, evaluate_batch
from repro.serve.demo import demo_column
from repro.serve.pool import (
    InlineWorkerPool,
    Job,
    ProcessWorkerPool,
    pack_rows,
    unpack_rows,
)
from repro.serve.protocol import ServeError
from repro.serve.registry import ModelRegistry
from repro.serve.worker import _decode_params, _worker_main


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


@pytest.fixture()
def inline_pool(registry):
    """An inline pool over the demo model, shut down (its loop thread too) after."""
    pool = InlineWorkerPool(registry.programs())
    yield pool
    pool.shutdown()


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
    copy = Network(
        program.nodes, program.outputs, name=program.name, provenance=program.provenance
    )
    copy._fingerprint = "0" * 64
    return copy


def encoded_volleys(network, volleys):
    from repro.network.compile_plan import encode_volleys

    return encode_volleys(volleys, arity=len(network.input_ids))


def eval_message(job_id, model_id, matrix):
    """An ``eval`` message as a process pool sends it: int64 bytes + rows."""
    return ("eval", job_id, model_id, pack_rows(matrix.tolist()), len(matrix), {}, 0)


def job(job_id, model_id, matrix, on_done, on_fail, params_enc=None):
    """A :class:`Job` for an encoded ``(B, n)`` *matrix*."""
    return Job(
        job_id,
        model_id,
        pack_rows(matrix.tolist()),
        len(matrix),
        params_enc or {},
        on_done,
        on_fail,
    )


def as_reply(result):
    """The engine's ``(B, n)`` result as the rows a job's ``on_done`` gets."""
    data = np.ascontiguousarray(result, dtype=np.int64).tobytes()
    return unpack_rows(data, len(result))


def running(pid: int) -> bool:
    """Whether process *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


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
            parent.send(eval_message(7, model_id, matrix))
            op, job_id, result, extras = parent.recv()
            assert (op, job_id) == ("ok", 7)
            # The first reply piggybacks the worker's metrics snapshot.
            assert set(extras) == {"metrics"}
            assert result == evaluate_batch(network, matrix).tobytes()
        finally:
            parent.send(("stop",))
            thread.join(timeout=5)

    def test_unknown_model_is_an_error_reply(self, registry):
        parent, thread = self.run_worker(registry)
        try:
            parent.send(eval_message(1, "f" * 64, np.zeros((1, 2), np.int64)))
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
            parent.send(eval_message(2, network.fingerprint(), matrix))
            op, _job, result, _extras = parent.recv()
            assert op == "ok"
            assert result == evaluate_batch(network, matrix).tobytes()
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
            parent.send(eval_message(3, model_id, matrix))
            op, _job, result, _extras = parent.recv()
            assert op == "ok"
            assert result == evaluate_batch(demo, matrix).tobytes()
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
            pool.submit(job(1, model_id, matrix, on_done, on_fail))
            assert done.wait(timeout=20), "no completion from worker"
            assert box["result"] == as_reply(evaluate_batch(network, matrix))

            # Crash a worker; the pool must notice and restart it.
            pool.inject_crash(0)
            deadline = threading.Event()
            for _ in range(200):
                if pool.restarts >= 1 and pool.alive_count() == 2:
                    break
                deadline.wait(timeout=0.05)
            assert pool.restarts >= 1
            assert pool.alive_count() == 2
            # Worker 1 forked the replacement: the frontend started no process.
            assert pool._workers[0].process is None

            # The restarted worker serves correctly.
            done2, box2, on_done2, on_fail2 = _completion_recorder()
            pool.submit(job(2, model_id, matrix, on_done2, on_fail2))
            assert done2.wait(timeout=20)
            assert box2["result"] == as_reply(evaluate_batch(network, matrix))
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
                worker.jobs[1] = job(1, model_id, matrix, on_done, on_fail)
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

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
    def test_shutdown_after_every_worker_crashed_is_prompt(self, registry):
        """No pipe is waited on for want of a fork, and no worker outlives it."""
        pool = ProcessWorkerPool(registry.programs(), n_workers=2)
        pids = {worker.pid for worker in pool._workers}
        pool.inject_crash(0)
        pool.inject_crash(1)
        deadline = time.monotonic() + 30
        while pool.restarts < 2:
            assert time.monotonic() < deadline, "the crashes were not reaped"
            time.sleep(0.005)
        started = time.monotonic()
        pool.shutdown()
        assert time.monotonic() - started < 1.0
        for worker in pool._workers:
            pids |= {worker.pid, worker.process and worker.process.pid}
        assert [pid for pid in pids - {None} if running(pid)] == []

    def test_submit_after_shutdown_rejected(self, registry, model_id):
        pool = ProcessWorkerPool(registry.programs(), n_workers=1)
        pool.shutdown()
        done, _box, on_done, on_fail = _completion_recorder()
        with pytest.raises(ServeError, match="shutting down"):
            pool.submit(
                job(1, model_id, np.zeros((1, 2), np.int64), on_done, on_fail)
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
            pool.submit(job(1, model_id, matrix, on_done, on_fail))
            assert done.wait(timeout=20)
            assert box["result"] == as_reply(evaluate_batch(network, matrix))

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

        import repro.serve.worker as worker_module

        monkeypatch.setattr(worker_module, "_warm_main", lambda conn: os._exit(1))
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
                job(1, network.fingerprint(), matrix, on_done, on_fail)
            )
            assert done.wait(timeout=20)
            assert box["result"] == as_reply(evaluate_batch(network, matrix))
        finally:
            pool.shutdown()

    def test_inline_pool_is_always_warm(self, inline_pool):
        assert inline_pool.wait_warm() is True


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
    def test_eval_matches_direct(self, registry, model_id, inline_pool):
        network = demo_network(registry)
        matrix = encoded_volleys(network, [(3, 0)])
        done, box, on_done, on_fail = _completion_recorder()
        inline_pool.submit(job(1, model_id, matrix, on_done, on_fail))
        assert done.is_set()  # synchronous
        assert box["result"] == as_reply(evaluate_batch(network, matrix))

    def test_int64_engine_eval(self, registry, model_id, inline_pool):
        network = demo_network(registry)
        matrix = encoded_volleys(network, [(2, 5)])
        done, box, on_done, on_fail = _completion_recorder()
        inline_pool.submit(job(1, model_id, matrix, on_done, on_fail))
        assert box["result"] == as_reply(evaluate_batch(network, matrix))

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

    def test_unknown_model_fails_job(self, inline_pool):
        done, box, on_done, on_fail = _completion_recorder()
        inline_pool.submit(
            job(1, "f" * 64, np.zeros((1, 2), np.int64), on_done, on_fail)
        )
        assert "not loaded" in box["reason"]

    def test_add_model(self, inline_pool):
        network, _ = demo_column(7, smoke=True)
        program = served(network)
        inline_pool.add_model(network.fingerprint(), program)
        # The inline pool serves the registry's own program object.
        assert inline_pool._worker.programs[network.fingerprint()] is program
        matrix = encoded_volleys(network, [(1, 1)])
        done, box, on_done, on_fail = _completion_recorder()
        inline_pool.submit(job(1, network.fingerprint(), matrix, on_done, on_fail))
        assert box["result"] == as_reply(evaluate_batch(network, matrix))

    def test_no_crashable_workers(self, inline_pool):
        with pytest.raises(RuntimeError, match="no crashable"):
            inline_pool.inject_crash(0)

    def test_shutdown_stops_admission(self, registry, model_id):
        pool = InlineWorkerPool(registry.programs())
        pool.shutdown()
        assert pool.alive_count() == 0
        done, _box, on_done, on_fail = _completion_recorder()
        with pytest.raises(ServeError, match="shutting down"):
            pool.submit(
                job(1, model_id, np.zeros((1, 2), np.int64), on_done, on_fail)
            )


# ---------------------------------------------------------------------------
# The eval payload: int64 bytes both ways, at its edges, on both pools
# ---------------------------------------------------------------------------


def _edge_programs():
    """``name -> (program, params)``: the shapes the bytes IPC must carry."""
    from repro.network import NetworkBuilder
    from repro.network.blocks import Node

    b = NetworkBuilder("no-inputs")
    mu = b.param("mu")
    b.output("late", b.inc(mu, 2))
    b.output("never", b.min())
    no_inputs = served(b.build())
    no_outputs = Network(
        (Node(0, "input", name="x"), Node(1, "inc", (0,), amount=1)), {}
    )
    b = NetworkBuilder("sentinels")
    x, y = b.inputs("x", "y")
    mu = b.param("mu")
    b.output("later", b.inc(x, 3))
    b.output("first", b.min(x, y, mu))
    b.output("last", b.max(x, y))
    b.output("race", b.lt(x, y))
    sentinels = served(b.build())
    return {
        "no-inputs": (no_inputs, {"mu": 0}),
        "no-outputs": (no_outputs, {}),
        "sentinels": (sentinels, {"mu": INF_I64}),
        "sentinels-bound": (sentinels, {"mu": 0}),
    }


def _edge_matrix(program, rows):
    """*rows* volleys cycling through 0, ``MAX_FINITE``, ``INF_I64`` and small times."""
    from repro.core.value import MAX_FINITE

    cells = [0, MAX_FINITE, INF_I64, 1, 7, MAX_FINITE - 2]
    width = len(program.input_ids)
    return np.array(
        [[cells[(r * 5 + c) % len(cells)] for c in range(width)] for r in range(rows)],
        dtype=np.int64,
    ).reshape(rows, width)


@pytest.fixture(scope="module", params=["inline", "process"])
def edge_pool(request):
    programs = {name: program for name, (program, _) in _edge_programs().items()}
    if request.param == "inline":
        pool = InlineWorkerPool(programs)
    else:
        pool = ProcessWorkerPool(programs, n_workers=1)
    yield pool
    pool.shutdown()


class TestBytesPayload:
    @pytest.mark.parametrize("rows", [1, 64])
    @pytest.mark.parametrize(
        "name", ["no-inputs", "no-outputs", "sentinels", "sentinels-bound"]
    )
    def test_reply_is_the_engine_result_byte_for_byte(self, edge_pool, name, rows):
        from repro.core.value import decode_time

        program, params = _edge_programs()[name]
        matrix = _edge_matrix(program, rows)
        done, box, on_done, on_fail = _completion_recorder()
        edge_pool.submit(job(1, name, matrix, on_done, on_fail, params_enc=params))
        assert done.wait(timeout=20), "no completion from worker"
        assert "reason" not in box, box.get("reason")
        decoded = {k: decode_time(v) for k, v in params.items()}
        want = evaluate_batch(program, matrix, params=decoded)
        assert want.shape == (rows, len(program.outputs))
        assert pack_rows(box["result"]) == want.tobytes()
        assert box["result"] == want.tolist()

    def test_sentinel_cells_cross_unchanged(self, edge_pool):
        program, params = _edge_programs()["sentinels"]
        matrix = _edge_matrix(program, 6)
        assert {0, INF_I64, INF_I64 - 1} <= set(matrix.ravel().tolist())
        done, box, on_done, on_fail = _completion_recorder()
        edge_pool.submit(job(2, "sentinels", matrix, on_done, on_fail, params))
        assert done.wait(timeout=20)
        later = [row[0] for row in box["result"]]
        # inc saturates: MAX_FINITE + 3 and ∞ + 3 are both ∞.
        assert later == [
            INF_I64 if v >= INF_I64 - 3 else v + 3 for v in matrix[:, 0].tolist()
        ]


class TestRowCodec:
    def test_pack_is_native_int64_row_after_row(self):
        rows = [(0, INF_I64), (INF_I64 - 1, 5)]
        assert pack_rows(rows) == np.array(rows, dtype=np.int64).tobytes()

    def test_unpack_shapes(self):
        data = np.arange(6, dtype=np.int64).tobytes()
        assert unpack_rows(data, 2) == [[0, 1, 2], [3, 4, 5]]
        assert unpack_rows(data, 6) == [[v] for v in range(6)]
        # No outputs: nothing crosses, yet every row gets its empty answer.
        assert unpack_rows(b"", 3) == [[], [], []]
