"""Served-vs-direct conformance: byte-identity through the full stack.

The serving layer is held to the same standard as the evaluation
backends: every answered request must be byte-identical (canonical JSON
response encoding) to a direct ``evaluate_batch`` — including across
generator-family networks, injected worker crashes mid-stream, and
deadline faults.
"""

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


class TestProcessPoolConformance:
    def test_byte_identical_through_worker_crashes(self):
        """Crash workers mid-stream; retries must not change a byte."""
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
            assert after.byte_identical, after.summary()
            # Crash-time rejections are only allowed as worker-failure
            # after retry exhaustion, never as silent wrong answers.
            assert set(after.rejected) <= {"worker-failure"}

            pool.inject_crash(1)
            final = check_served(service, "demo", demo_volleys(arity, 40, seed=3))
            assert final.byte_identical, final.summary()
            assert pool.restarts >= 1
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
