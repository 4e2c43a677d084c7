"""Served-vs-direct conformance: byte-identity through the full stack.

The serving layer is held to the same standard as the evaluation
backends: every answered request must be byte-identical (canonical JSON
response encoding) to a direct ``evaluate_batch`` — including across
generator-family networks, injected worker crashes mid-stream, and
deadline faults.
"""

import time

import pytest

from repro.serve.batcher import BatchPolicy
from repro.serve.demo import demo_column, demo_volleys
from repro.serve.pool import InlineWorkerPool, ProcessWorkerPool
from repro.serve.registry import ModelRegistry
from repro.serve.service import TNNService
from repro.testing import check_served
from repro.testing.generators import generate_case


class TestGeneratorFamilies:
    """Seeded conformance cases through the serving stack (inline pool)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_served_case_byte_identical(self, seed):
        case = generate_case(seed, smoke=True)
        registry = ModelRegistry()
        entry = registry.register(case.network, name=f"case-{seed}")
        service = TNNService(
            registry,
            InlineWorkerPool(registry.programs()),
            policy=BatchPolicy(max_batch=16, max_wait_s=0.001),
        )
        try:
            report = check_served(
                service,
                entry.model_id,
                list(case.volleys),
                params=case.params or None,
            )
            assert report.byte_identical, report.summary()
            assert report.ok == report.total  # nothing rejected
        finally:
            service.close()


def wait_for(condition, what):
    deadline = time.monotonic() + 30
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


class TestProcessPoolConformance:
    def test_byte_identical_through_worker_crashes(self):
        """Crash workers mid-stream; retries serve every request, byte for byte."""
        network, _ = demo_column(0, smoke=True)
        registry = ModelRegistry()
        registry.register(network, name="demo")
        pool = ProcessWorkerPool(registry.programs(), n_workers=2)
        service = TNNService(
            registry,
            pool,
            policy=BatchPolicy(max_batch=8, max_wait_s=0.002),
            max_attempts=4,
        )
        try:
            arity = len(network.input_ids)
            clean = check_served(service, "demo", demo_volleys(arity, 40, seed=1))
            assert clean.byte_identical and clean.ok == 40, clean.summary()

            pool.inject_crash(0)
            after = check_served(service, "demo", demo_volleys(arity, 40, seed=2))
            assert after.byte_identical and after.ok == 40, after.summary()
            # Worker 1 forked worker 0's replacement; crash worker 1 only
            # once that replacement serves.
            wait_for(
                lambda: pool.restarts == 1 and pool.alive_count() == 2,
                "worker 0 was not replaced",
            )

            pool.inject_crash(1)
            final = check_served(service, "demo", demo_volleys(arity, 40, seed=3))
            assert final.byte_identical and final.ok == 40, final.summary()
            assert pool.restarts >= 2
        finally:
            service.close()

    def test_byte_identical_through_a_crash_during_promotion(self):
        """Worker 0 dies as an alias is promoted: the alias serves its new model."""
        registry = ModelRegistry()
        old = registry.register(demo_column(0, smoke=True)[0], name="m@live")
        pool = ProcessWorkerPool(registry.programs(), n_workers=2)
        service = TNNService(
            registry, pool, policy=BatchPolicy(max_batch=8, max_wait_s=0.002)
        )
        try:
            served = check_served(service, "m@live", demo_volleys(old.input_arity, 8, seed=5))
            assert served.byte_identical and served.ok == 8, served.summary()
            new = service.register(demo_column(1, smoke=True)[0])
            pool.inject_crash(0)
            summary = service.promote("m@live", new.model_id)
            assert (summary["model"], summary["retired"]) == (new.model_id, old.model_id)
            report = check_served(
                service, "m@live", demo_volleys(new.input_arity, 40, seed=6)
            )
            assert report.byte_identical and report.ok == report.total, report.summary()
            assert not report.rejected
            assert old.model_id not in registry.ids()
        finally:
            service.close()


class TestDeadlineFaults:
    def test_expired_requests_reject_never_mismatch(self):
        network, _ = demo_column(0, smoke=True)
        registry = ModelRegistry()
        registry.register(network, name="demo")
        service = TNNService(
            registry,
            InlineWorkerPool(registry.programs()),
            # Long wait forces every request to outlive its deadline.
            policy=BatchPolicy(max_batch=256, max_wait_s=0.05),
        )
        try:
            arity = len(network.input_ids)
            report = check_served(
                service,
                "demo",
                demo_volleys(arity, 10, seed=4),
                deadline_s=0.001,
            )
            assert report.byte_identical, report.summary()
            assert report.rejected.get("deadline", 0) == 10
            assert report.ok == 0
        finally:
            service.close()

    def test_mixed_deadline_traffic_stays_conformant(self):
        network, _ = demo_column(0, smoke=True)
        registry = ModelRegistry()
        registry.register(network, name="demo")
        service = TNNService(
            registry,
            InlineWorkerPool(registry.programs()),
            policy=BatchPolicy(max_batch=8, max_wait_s=0.001),
        )
        try:
            arity = len(network.input_ids)
            report = check_served(
                service,
                "demo",
                demo_volleys(arity, 40, seed=5),
                deadline_s=5.0,  # generous: everything should answer
            )
            assert report.byte_identical, report.summary()
            assert report.ok == 40
        finally:
            service.close()
