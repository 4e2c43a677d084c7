"""Hot-swap promotion: atomic alias flip, retirement, promote-under-load.

The acceptance scenario of the training plane's zero-downtime story:
promote an alias while the service is saturated with requests against
it, and assert that (1) nothing is dropped, (2) every response is
byte-identical to a direct evaluation of the fingerprint resolved at its
admission, and (3) the superseded model's cached state is purged.
"""

import threading

import pytest

from repro.network.compile_plan import decode_matrix, evaluate_batch
from repro.obs.metrics import METRICS
from repro.runtime.result_cache import RESULT_CACHE
from repro.serve.batcher import BatchPolicy
from repro.serve.demo import demo_column, demo_volleys
from repro.serve.pool import InlineWorkerPool
from repro.serve.protocol import ServeError, canonical, ok_response
from repro.serve.registry import ModelRegistry
from repro.serve.service import TNNService

ALIAS = "demo@live"


@pytest.fixture(autouse=True)
def clean_result_cache():
    RESULT_CACHE.clear()
    yield
    RESULT_CACHE.clear()


def build_service(**kwargs):
    registry = ModelRegistry()
    old_net, _ = demo_column(0, smoke=True)
    registry.register(old_net, name=ALIAS)
    kwargs.setdefault("policy", BatchPolicy(max_batch=16, max_wait_s=0.001))
    kwargs.setdefault("result_cache", True)
    service = TNNService(
        registry, InlineWorkerPool(registry.programs()), **kwargs
    )
    return service, old_net


def direct_row(network, volley):
    matrix = evaluate_batch(network, [tuple(volley)])
    return tuple(decode_matrix(matrix)[0])


def cached_keys(fingerprint):
    with RESULT_CACHE._lock:
        return [key for key in RESULT_CACHE._entries if key[0] == fingerprint]


class TestPromoteSemantics:
    def test_flip_retires_previous_and_reports(self):
        service, old_net = build_service()
        try:
            new_net, _ = demo_column(1, smoke=True)
            old_fp, new_fp = old_net.fingerprint(), new_net.fingerprint()
            assert old_fp != new_fp
            service.register(new_net)
            summary = service.promote(ALIAS, new_fp)
            assert summary == {
                "alias": ALIAS,
                "model": new_fp,
                "previous": old_fp,
                "warmed": True,
                "retired": old_fp,
            }
            assert service.registry.resolve(ALIAS).model_id == new_fp
            with pytest.raises(ServeError):
                service.registry.resolve(old_fp)
            # The retired document survives in the archive for byte-checks.
            fingerprint, document = service.document(old_fp)
            assert fingerprint == old_fp and document
        finally:
            service.close()

    def test_retire_false_keeps_previous(self):
        service, old_net = build_service()
        try:
            new_net, _ = demo_column(1, smoke=True)
            service.register(new_net)
            summary = service.promote(
                ALIAS, new_net.fingerprint(), retire=False
            )
            assert summary["retired"] is None
            assert (
                service.registry.resolve(old_net.fingerprint()).model_id
                == old_net.fingerprint()
            )
        finally:
            service.close()

    def test_promote_to_unregistered_target_rejected(self):
        service, _old = build_service()
        try:
            with pytest.raises(ServeError) as err:
                service.promote(ALIAS, "f" * 64)
            assert err.value.code == "no-such-model"
        finally:
            service.close()

    def test_self_promotion_is_a_noop(self):
        service, old_net = build_service()
        try:
            summary = service.promote(ALIAS, old_net.fingerprint())
            assert summary["previous"] == summary["model"]
            assert summary["retired"] is None
            assert service.registry.resolve(ALIAS).model_id == old_net.fingerprint()
        finally:
            service.close()

    def test_second_alias_blocks_retirement(self):
        service, old_net = build_service()
        try:
            service.registry.promote("pinned", old_net.fingerprint())
            new_net, _ = demo_column(1, smoke=True)
            service.register(new_net)
            summary = service.promote(ALIAS, new_net.fingerprint())
            assert summary["retired"] is None  # "pinned" still needs it
            assert (
                service.registry.resolve("pinned").model_id
                == old_net.fingerprint()
            )
        finally:
            service.close()

    def test_retired_result_cache_rows_purged(self):
        service, old_net = build_service()
        try:
            old_fp = old_net.fingerprint()
            volleys = demo_volleys(2, 8, seed=4)
            for future in [service.submit(ALIAS, v) for v in volleys]:
                future.result(timeout=10)
            assert cached_keys(old_fp)  # rows were memoized
            retired_before = METRICS.counter("result_cache.evict.retired")
            new_net, _ = demo_column(1, smoke=True)
            service.register(new_net)
            service.promote(ALIAS, new_net.fingerprint())
            assert cached_keys(old_fp) == []
            assert (
                METRICS.counter("result_cache.evict.retired") > retired_before
            )
        finally:
            service.close()


class TestPromoteUnderLoad:
    N_PHASED = 4
    PER_PHASE = 120

    def test_promote_while_saturated(self):
        service, old_net = build_service(max_pending=100_000)
        new_net, _ = demo_column(1, smoke=True)
        old_fp, new_fp = old_net.fingerprint(), new_net.fingerprint()
        networks = {old_fp: old_net, new_fp: new_net}
        volleys = demo_volleys(2, 48, seed=9)
        admitted = []  # (resolved fingerprint, volley, future)
        admitted_lock = threading.Lock()
        errors = []
        half_done = threading.Barrier(self.N_PHASED + 1)
        promoted = threading.Event()
        stop = threading.Event()

        def submit_one(index):
            volley = volleys[index % len(volleys)]
            try:
                future = service.submit(ALIAS, volley)
            except ServeError as exc:  # any drop fails the test
                errors.append(exc)
                return
            with admitted_lock:
                admitted.append((future.model_id, volley, future))

        def phased(offset):
            # Half the stream strictly before the flip, half strictly
            # after — both fingerprints are guaranteed represented.
            for i in range(self.PER_PHASE):
                submit_one(offset + i)
            half_done.wait(timeout=30)
            promoted.wait(timeout=30)
            for i in range(self.PER_PHASE):
                submit_one(offset + self.PER_PHASE + i)

        def continuous():
            # Uninterrupted pressure across the flip itself: the
            # promotion happens while this thread is mid-hammer.
            i = 0
            while not stop.is_set():
                submit_one(i)
                i += 1

        threads = [
            threading.Thread(target=phased, args=(k * 7,))
            for k in range(self.N_PHASED)
        ]
        threads.append(threading.Thread(target=continuous))
        for thread in threads:
            thread.start()
        try:
            half_done.wait(timeout=30)
            service.register(new_net)
            summary = service.promote(ALIAS, new_fp)
            promoted.set()
            assert summary["model"] == new_fp
            assert summary["retired"] == old_fp
        finally:
            promoted.set()
            for thread in threads[:-1]:
                thread.join(timeout=60)
            stop.set()
            threads[-1].join(timeout=60)

        try:
            assert errors == []  # zero rejected admissions
            rows = []
            for fingerprint, volley, future in admitted:
                rows.append((fingerprint, volley, future.result(timeout=30)))
            # Zero dropped: every admitted request resolved with a row.
            assert len(rows) == len(admitted)
            served_fps = {fingerprint for fingerprint, _, _ in rows}
            assert served_fps == {old_fp, new_fp}
            # Byte-exactness against the fingerprint resolved at
            # admission: canonical response bytes must equal a direct
            # local evaluation of that exact model version.
            oracle = {
                (fp, volley): direct_row(networks[fp], volley)
                for fp in served_fps
                for volley in volleys
            }
            for fingerprint, volley, row in rows:
                assert canonical(ok_response(0, row)) == canonical(
                    ok_response(0, oracle[(fingerprint, volley)])
                )
            # The retired fingerprint's memoized rows are gone — even
            # ones re-inserted by completions that straddled the flip.
            assert cached_keys(old_fp) == []
            assert METRICS.counter("result_cache.evict.retired") > 0
            deadline_passed = 0
            while service.pending() > 0 and deadline_passed < 200:
                threading.Event().wait(0.01)
                deadline_passed += 1
            assert service.pending() == 0
        finally:
            service.close()
