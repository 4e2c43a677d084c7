"""The (fingerprint, volley) result cache through the serving stack.

A hit must answer ahead of admission (no pool round-trip), remain
byte-identical to direct evaluation — including under crash and deadline
fault injection — and the served cache self-check must detect a
deliberately poisoned row.
"""

import pytest

from repro.obs.metrics import METRICS
from repro.runtime.result_cache import RESULT_CACHE
from repro.serve.batcher import BatchPolicy
from repro.serve.demo import demo_column, demo_volleys
from repro.serve.pool import InlineWorkerPool, ProcessWorkerPool
from repro.serve.registry import ModelRegistry
from repro.serve.service import TNNService
from repro.testing import (
    CachePoisonFault,
    check_served,
    run_served_cache_selfcheck,
)


@pytest.fixture(autouse=True)
def clean_result_cache():
    """The cache is process-global and fingerprint-keyed; demo networks
    share fingerprints across tests, so every test starts cold."""
    RESULT_CACHE.clear()
    yield
    RESULT_CACHE.clear()


def demo_service(*, result_cache=True, pool=None, **kwargs):
    network, _ = demo_column(0, smoke=True)
    registry = ModelRegistry()
    registry.register(network, name="demo")
    if pool is None:
        pool = InlineWorkerPool(registry.programs())
    else:
        pool = pool(registry.programs())
    service = TNNService(
        registry,
        pool,
        policy=kwargs.pop("policy", BatchPolicy(max_batch=8, max_wait_s=0.001)),
        result_cache=result_cache,
        **kwargs,
    )
    return service, network, pool


class TestAheadOfAdmission:
    def test_repeat_submission_skips_the_pool(self):
        service, network, _ = demo_service()
        try:
            arity = len(network.input_ids)
            volley = tuple([1] * arity)
            submits0 = METRICS.counter("serve.pool.submits")
            served0 = METRICS.counter("serve.result_cache.served")
            first = service.submit("demo", volley).result(timeout=10)
            second = service.submit("demo", volley).result(timeout=10)
            assert first == second
            assert METRICS.counter("serve.pool.submits") - submits0 == 1
            assert METRICS.counter("serve.result_cache.served") - served0 == 1
        finally:
            service.close()

    def test_deadline_does_not_change_the_key(self):
        service, network, _ = demo_service()
        try:
            arity = len(network.input_ids)
            volley = tuple([1] * arity)
            served0 = METRICS.counter("serve.result_cache.served")
            service.submit("demo", volley).result(timeout=10)
            service.submit("demo", volley, deadline_s=5.0).result(timeout=10)
            assert METRICS.counter("serve.result_cache.served") - served0 == 1
        finally:
            service.close()

    def test_cache_is_off_by_default(self):
        service, network, _ = demo_service(result_cache=False)
        try:
            assert not service.result_cache_enabled
            arity = len(network.input_ids)
            volley = tuple([2] * arity)
            submits0 = METRICS.counter("serve.pool.submits")
            service.submit("demo", volley).result(timeout=10)
            service.submit("demo", volley).result(timeout=10)
            assert METRICS.counter("serve.pool.submits") - submits0 == 2
        finally:
            service.close()

    def test_stats_expose_the_result_cache(self):
        service, network, _ = demo_service()
        try:
            arity = len(network.input_ids)
            volley = tuple([3] * arity)
            service.submit("demo", volley).result(timeout=10)
            service.submit("demo", volley).result(timeout=10)
            record = service.stats()["result_cache"]
            assert record["enabled"] is True
            assert record["entries"] >= 1
            assert record["hits"] >= 1
        finally:
            service.close()


class TestByteIdentity:
    def test_check_served_repeat_rounds_hit_the_cache(self):
        service, network, _ = demo_service()
        try:
            arity = len(network.input_ids)
            hits0 = RESULT_CACHE.info()["hits"]
            report = check_served(
                service, "demo", demo_volleys(arity, 12, seed=7), repeat=3
            )
            assert report.total == 36
            assert report.byte_identical and report.ok == 36, report.summary()
            # Rounds two and three are served from the cache and still
            # byte-checked against direct evaluation.
            assert RESULT_CACHE.info()["hits"] - hits0 >= 24
        finally:
            service.close()

    def test_repeat_must_be_positive(self):
        service, _, _ = demo_service()
        try:
            with pytest.raises(ValueError, match=">= 1"):
                check_served(service, "demo", [(1, 2)], repeat=0)
        finally:
            service.close()

    def test_byte_identity_through_worker_crashes_with_cache_armed(self):
        service, network, pool = demo_service(
            pool=lambda programs: ProcessWorkerPool(programs, n_workers=2),
            max_attempts=4,
        )
        try:
            arity = len(network.input_ids)
            warm = check_served(
                service, "demo", demo_volleys(arity, 30, seed=8), repeat=2
            )
            assert warm.byte_identical, warm.summary()

            pool.inject_crash(0)
            after = check_served(
                service, "demo", demo_volleys(arity, 30, seed=9), repeat=2
            )
            assert after.byte_identical, after.summary()
            assert set(after.rejected) <= {"worker-failure"}
        finally:
            service.close()

    def test_deadline_faults_never_leak_mismatches_with_cache_armed(self):
        service, network, _ = demo_service(
            policy=BatchPolicy(max_batch=8, max_wait_s=0.001)
        )
        try:
            arity = len(network.input_ids)
            report = check_served(
                service,
                "demo",
                demo_volleys(arity, 20, seed=10),
                deadline_s=5.0,
                repeat=2,
            )
            assert report.byte_identical, report.summary()
            assert report.ok == 40
        finally:
            service.close()


class TestCachePoisoning:
    def test_selfcheck_detects_a_poisoned_row(self):
        service, network, _ = demo_service()
        try:
            arity = len(network.input_ids)
            report = run_served_cache_selfcheck(
                service, "demo", demo_volleys(arity, 10, seed=11)
            )
            assert report.warm.byte_identical, report.warm.summary()
            assert report.poisoned_key is not None
            assert report.detected, report.summary()
            assert report.ok
            assert not report.poisoned.byte_identical
            assert len(report.poisoned.mismatches) >= 1
        finally:
            service.close()

    def test_selfcheck_requires_an_armed_cache(self):
        service, network, _ = demo_service(result_cache=False)
        try:
            arity = len(network.input_ids)
            with pytest.raises(ValueError, match="result cache"):
                run_served_cache_selfcheck(
                    service, "demo", demo_volleys(arity, 4, seed=12)
                )
        finally:
            service.close()

    def test_poison_fault_reports_none_on_cold_cache(self):
        assert CachePoisonFault().inject() is None
