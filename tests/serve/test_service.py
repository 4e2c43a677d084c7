"""Tests for the service core: admission, batching, deadlines, retry."""

import json
import threading
import time

import numpy as np
import pytest

from repro.core.value import INF
from repro.network import serialize
from repro.network.compile_plan import evaluate_batch
from repro.network.graph import NetworkError
from repro.serve.batcher import BatchPolicy
from repro.serve.demo import demo_column, demo_volleys
from repro.serve.pool import InlineWorkerPool, start_loop
from repro.serve import service as service_module
from repro.serve.protocol import ServeError, encode_line
from repro.serve.registry import ModelRegistry
from repro.serve.server import _handle_model_doc
from repro.serve.service import TNNService, _params_key


@pytest.fixture()
def registry():
    reg = ModelRegistry()
    reg.register(demo_column(0, smoke=True)[0], name="demo")
    return reg


def make_service(registry, **kwargs):
    kwargs.setdefault("policy", BatchPolicy(max_batch=8, max_wait_s=0.002))
    return TNNService(registry, InlineWorkerPool(registry.programs()), **kwargs)


class HoldingPool:
    """A pool stub that parks jobs until the test releases them."""

    def __init__(self):
        self.jobs = []
        self.lock = threading.Lock()
        self.loop, self.stop_loop = start_loop()

    def alive_count(self):
        return 1

    def submit(self, job):
        with self.lock:
            self.jobs.append(job)

    def wait_for(self, n, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.lock:
                if len(self.jobs) >= n:
                    return
            time.sleep(0.005)
        raise AssertionError(f"pool never saw {n} job(s)")

    def release_all(self, registry):
        with self.lock:
            jobs, self.jobs = self.jobs, []
        for job in jobs:
            entry = registry.resolve(job.model_id)
            matrix = np.frombuffer(job.volleys, np.int64).reshape(job.rows, -1)
            job.on_done(evaluate_batch(entry.program, matrix).tolist())

    def add_model(self, model_id, program, payload=None):
        pass

    def shutdown(self, timeout=10.0):
        self.stop_loop(timeout)


class FlakyPool(InlineWorkerPool):
    """Fails the first *n* submits (as a dead worker would), then recovers."""

    def __init__(self, programs, fail_first=1):
        super().__init__(programs)
        self.failures_left = fail_first
        self.attempts = 0

    def submit(self, job):
        self.attempts += 1
        if self.failures_left > 0:
            self.failures_left -= 1
            raise ServeError("worker-failure", "synthetic crash")
        super().submit(job)


class TestHappyPath:
    def test_served_equals_direct(self, registry):
        service = make_service(registry)
        try:
            volleys = demo_volleys(registry.resolve("demo").input_arity, 24, seed=1)
            futures = [service.submit("demo", v) for v in volleys]
            results = [f.result(timeout=10) for f in futures]
            assert results == service.direct("demo", volleys)
        finally:
            service.close()

    def test_resolves_by_fingerprint_prefix(self, registry):
        service = make_service(registry)
        try:
            model_id = registry.resolve("demo").model_id
            future = service.submit(model_id[:12], (0, 1))
            assert future.result(timeout=10) == service.direct("demo", [(0, 1)])[0]
        finally:
            service.close()

    def test_pending_drains_to_zero(self, registry):
        service = make_service(registry)
        try:
            futures = [service.submit("demo", (i, 0)) for i in range(10)]
            for f in futures:
                f.result(timeout=10)
            for _ in range(100):
                if service.pending() == 0:
                    break
                time.sleep(0.01)
            assert service.pending() == 0
        finally:
            service.close()


class TestValidation:
    def test_unknown_model(self, registry):
        service = make_service(registry)
        try:
            with pytest.raises(ServeError) as err:
                service.submit("nope", (0, 1))
            assert err.value.code == "no-such-model"
        finally:
            service.close()

    def test_wrong_arity(self, registry):
        service = make_service(registry)
        try:
            with pytest.raises(ServeError) as err:
                service.submit("demo", (0, 1, 2))
            assert err.value.code == "bad-request"
        finally:
            service.close()

    def test_unexpected_params(self, registry):
        service = make_service(registry)
        try:
            with pytest.raises(ServeError) as err:
                service.submit("demo", (0, 1), params={"mu": INF})
            assert err.value.code == "bad-request"
        finally:
            service.close()

    def test_negative_time(self, registry):
        service = make_service(registry)
        try:
            with pytest.raises(ServeError) as err:
                service.submit("demo", (-1, 1))
            assert err.value.code == "bad-request"
        finally:
            service.close()


class TestBackpressure:
    def test_overload_rejected_synchronously(self, registry):
        pool = HoldingPool()
        service = TNNService(
            registry,
            pool,
            policy=BatchPolicy(max_batch=1, max_wait_s=0),
            max_pending=2,
        )
        try:
            f1 = service.submit("demo", (0, 1))
            f2 = service.submit("demo", (1, 2))
            with pytest.raises(ServeError) as err:
                service.submit("demo", (2, 3))
            assert err.value.code == "overloaded"
            pool.wait_for(2)
            pool.release_all(registry)
            direct = service.direct("demo", [(0, 1), (1, 2)])
            assert [f1.result(10), f2.result(10)] == direct
        finally:
            service.close()

    def test_slots_recycle_after_completion(self, registry):
        service = make_service(registry, max_pending=4)
        try:
            for round_ in range(3):
                futures = [service.submit("demo", (i, round_)) for i in range(4)]
                for f in futures:
                    f.result(timeout=10)
                for _ in range(100):
                    if service.pending() == 0:
                        break
                    time.sleep(0.01)
        finally:
            service.close()


class TestDeadlines:
    def test_expired_at_dispatch_is_rejected(self, registry):
        service = TNNService(
            registry,
            InlineWorkerPool(registry.programs()),
            policy=BatchPolicy(max_batch=64, max_wait_s=0.1),
        )
        try:
            future = service.submit("demo", (0, 1), deadline_s=0.01)
            with pytest.raises(ServeError) as err:
                future.result(timeout=10)
            assert err.value.code == "deadline"
            for _ in range(100):
                if service.pending() == 0:
                    break
                time.sleep(0.01)
            assert service.pending() == 0
        finally:
            service.close()

    def test_generous_deadline_still_answers(self, registry):
        service = make_service(registry, default_deadline_s=30.0)
        try:
            future = service.submit("demo", (2, 2))
            assert future.result(timeout=10) == service.direct("demo", [(2, 2)])[0]
        finally:
            service.close()


class RecordingPool(InlineWorkerPool):
    """Notes when each batch is dispatched, and its rows."""

    def __init__(self, programs):
        super().__init__(programs)
        self.dispatched = []

    def submit(self, job):
        self.dispatched.append((time.monotonic(), job.rows))
        super().submit(job)


class TestLatencyTrigger:
    """A batch's deadline is an event-loop timer armed when it opens."""

    def test_lone_request_dispatches_after_max_wait(self, registry):
        pool = RecordingPool(registry.programs())
        service = TNNService(
            registry, pool, policy=BatchPolicy(max_batch=64, max_wait_s=0.05)
        )
        try:
            submitted = time.monotonic()
            service.submit("demo", (0, 1)).result(timeout=10)
            [(dispatched, rows)] = pool.dispatched
            assert rows == 1
            assert dispatched - submitted >= 0.05
        finally:
            service.close()

    def test_age_measured_from_batch_open(self, registry):
        pool = RecordingPool(registry.programs())
        service = TNNService(
            registry, pool, policy=BatchPolicy(max_batch=64, max_wait_s=0.3)
        )
        try:
            opened = time.monotonic()
            first = service.submit("demo", (0, 1))
            time.sleep(0.1)
            late = time.monotonic()
            rider = service.submit("demo", (1, 0))  # same open batch
            assert [first.result(10), rider.result(10)] == service.direct(
                "demo", [(0, 1), (1, 0)]
            )
            [(dispatched, rows)] = pool.dispatched
            assert rows == 2
            assert opened + 0.3 <= dispatched < late + 0.3
        finally:
            service.close()

    def test_filled_batch_cancels_its_deadline_timer(self, registry):
        pool = RecordingPool(registry.programs())
        service = TNNService(
            registry, pool, policy=BatchPolicy(max_batch=2, max_wait_s=30.0)
        )
        try:
            futures = [service.submit("demo", v) for v in [(0, 1), (2, 3)]]
            assert [f.result(timeout=10) for f in futures] == service.direct(
                "demo", [(0, 1), (2, 3)]
            )
            assert [rows for _, rows in pool.dispatched] == [2]
            assert service._timers == {}
        finally:
            service.close()


class TestRetry:
    def test_worker_failure_is_retried_transparently(self, registry):
        pool = FlakyPool(registry.programs(), fail_first=1)
        service = TNNService(
            registry,
            pool,
            policy=BatchPolicy(max_batch=4, max_wait_s=0.001),
            max_attempts=2,
        )
        try:
            volleys = [(0, 1), (2, 3), (1, 1)]
            futures = [service.submit("demo", v) for v in volleys]
            results = [f.result(timeout=10) for f in futures]
            assert results == service.direct("demo", volleys)
            assert pool.attempts >= 2  # first failed, second succeeded
        finally:
            service.close()

    def test_retry_budget_is_bounded(self, registry):
        pool = FlakyPool(registry.programs(), fail_first=100)
        service = TNNService(
            registry,
            pool,
            policy=BatchPolicy(max_batch=4, max_wait_s=0.001),
            max_attempts=2,
        )
        try:
            future = service.submit("demo", (0, 1))
            with pytest.raises(ServeError) as err:
                future.result(timeout=10)
            assert err.value.code == "worker-failure"
            assert pool.attempts == 2
            for _ in range(100):
                if service.pending() == 0:
                    break
                time.sleep(0.01)
            assert service.pending() == 0
        finally:
            service.close()


class TestLifecycle:
    def test_submit_after_close_rejected(self, registry):
        service = make_service(registry)
        service.close()
        with pytest.raises(ServeError) as err:
            service.submit("demo", (0, 1))
        assert err.value.code == "shutting-down"

    def test_close_without_drain_fails_queued_work(self, registry):
        pool = HoldingPool()
        service = TNNService(
            registry,
            pool,
            policy=BatchPolicy(max_batch=64, max_wait_s=5.0),
        )
        future = service.submit("demo", (0, 1))
        service.close(drain=False, timeout=2.0)
        with pytest.raises(ServeError) as err:
            future.result(timeout=5)
        assert err.value.code == "shutting-down"
        assert service.pending() == 0

    def test_close_is_idempotent(self, registry):
        service = make_service(registry)
        service.close()
        service.close()

    def test_register_ships_to_pool(self, registry):
        service = make_service(registry)
        try:
            network, _ = demo_column(9, smoke=True)
            entry = service.register(network, name="nine")
            future = service.submit("nine", (0, 1))
            assert (
                future.result(timeout=10)
                == service.direct(entry.model_id, [(0, 1)])[0]
            )
        finally:
            service.close()


class TestRegisterDocument:
    """``register`` takes a Network or a document; both are round-tripped."""

    def test_document_is_kept_as_given(self):
        network = demo_column(2, smoke=True)[0]
        text = serialize.dumps(network, indent=2)
        entry = ModelRegistry().register(text, name="two")
        # Kept compressed; handed back as the exact text registered.
        assert entry.document == text and len(entry.packed) < len(text)
        assert entry.model_id == network.fingerprint()
        assert entry.describe()["nodes"] == entry.nodes == len(network.nodes)
        assert entry.name == "two"

    def test_document_and_network_share_one_entry(self):
        network = demo_column(2, smoke=True)[0]
        reg = ModelRegistry()
        first = reg.register(network)
        again = reg.register(serialize.dumps(network), name="alias")
        assert again is first and len(reg) == 1
        assert reg.resolve("alias") is first

    def test_tampered_document_is_refused(self):
        text = serialize.dumps(demo_column(2, smoke=True)[0])
        reg = ModelRegistry()
        bad = text.replace('"fingerprint": "', '"fingerprint": "0', 1)
        with pytest.raises(NetworkError, match="fingerprint mismatch"):
            reg.register(bad)
        assert len(reg) == 0

    def test_network_round_trip_failure_is_loud(self, monkeypatch):
        network = demo_column(2, smoke=True)[0]
        other = demo_column(3, smoke=True)[0]
        monkeypatch.setattr(serialize, "loads", lambda _text: other)
        reg = ModelRegistry()
        with pytest.raises(NetworkError, match="round-trip changed"):
            reg.register(network)
        assert len(reg) == 0


class TestStats:
    def test_stats_shape(self, registry):
        service = make_service(registry)
        try:
            futures = [service.submit("demo", (i, 0)) for i in range(6)]
            for f in futures:
                f.result(timeout=10)
            stats = service.stats()
            assert stats["models"] == 1
            assert stats["policy"]["max_batch"] == 8
            assert stats["batch_size"]["rows"] >= 6
            assert set(stats["latency"]) >= {"p50_ms", "p90_ms", "p99_ms"}
            assert stats["workers_alive"] == 1
        finally:
            service.close()


class TestParamsKey:
    def test_canonical_and_order_free(self):
        assert _params_key({"b": INF, "a": 0}) == _params_key({"a": 0, "b": INF})
        assert _params_key({"mu": INF}) == '{"mu":null}'
        assert _params_key({}) == "{}"


class TestPackedDocuments:
    """Documents are kept compressed; ``model_doc`` hands back the exact text."""

    @staticmethod
    def model_doc(service, key):
        reply = _handle_model_doc(service, {"op": "model_doc", "model": key})
        assert reply["ok"], reply
        # Through the wire encoding and back, as a client reads it.
        return json.loads(encode_line(reply))["document"]

    def test_model_doc_returns_the_registered_text_byte_for_byte(self):
        network = demo_column(5, smoke=True)[0]
        # Indented, non-ASCII and with a trailing newline: kept as written.
        text = serialize.dumps(network, indent=3).replace(
            '"srm0-col-seed5"', '"colonne \\u00e9 ∞"', 1
        ) + "\n"
        other = demo_column(6, smoke=True)[0]
        registry = ModelRegistry()
        service = make_service(registry)
        try:
            by_text = service.register(text, name="text")
            by_network = service.register(other, name="network")
            assert self.model_doc(service, "text").encode() == text.encode()
            assert self.model_doc(service, "network") == serialize.dumps(other, indent=None)
            assert service._document_archive[by_text.model_id] is by_text.packed
            registry.remove(by_text.model_id)
            with pytest.raises(ServeError):
                registry.resolve(by_text.model_id)
            for key in (by_text.model_id, by_text.model_id[:12]):
                assert self.model_doc(service, key).encode() == text.encode()
            assert len(by_text.packed) < len(text) / 2
        finally:
            service.close()

    def test_register_trims_the_heap_once_per_shipped_program(self, monkeypatch):
        trims = []
        monkeypatch.setattr(service_module, "_trim_heap", lambda: trims.append(1))
        service = make_service(ModelRegistry())
        try:
            network = demo_column(7, smoke=True)[0]
            service.register(network)
            service.register(serialize.dumps(network), name="again")
            assert len(trims) == 1
        finally:
            service.close()

    def test_trim_is_a_callable_or_none(self):
        trim = service_module._malloc_trim()
        assert trim is None or callable(trim)
        service_module._trim_heap()
