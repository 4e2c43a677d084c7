"""Tests for the incremental trainer and the training plane.

The plane is exercised synchronously (train_step/snapshot are exactly
what the worker thread loops over) and once threaded end-to-end.
"""

import random
import time

import numpy as np
import pytest

from repro.core.value import INF
from repro.learning.stdp import STDPRule
from repro.neuron.column import Column
from repro.neuron.response import ResponseFunction
from repro.serve.batcher import BatchPolicy
from repro.serve.pool import InlineWorkerPool
from repro.serve.protocol import ServeError
from repro.serve.registry import ModelRegistry
from repro.serve.service import TNNService
from repro.train import IncrementalTrainer, TrainingItem, TrainingPlane

BASE = ResponseFunction.step(amplitude=1, width=8)
ALIAS = "tiny@live"


def make_column(seed=0, n_inputs=8, n_neurons=3):
    rng = random.Random(seed)
    weights = np.array(
        [
            [rng.randint(1, 3) for _ in range(n_inputs)]
            for _ in range(n_neurons)
        ]
    )
    return Column(weights, threshold=6, base_response=BASE)


def learning_items(count, n_inputs=8, seed=1):
    """Volleys that reliably produce WTA winners (and so weight change)."""
    rng = random.Random(seed)
    return [
        TrainingItem(volley=tuple(rng.randint(0, 2) for _ in range(n_inputs)))
        for _ in range(count)
    ]


@pytest.fixture()
def service():
    registry = ModelRegistry()
    svc = TNNService(
        registry,
        InlineWorkerPool(registry.programs()),
        policy=BatchPolicy(max_batch=8, max_wait_s=0.002),
    )
    yield svc
    svc.close()


def make_plane(service, **kwargs):
    kwargs.setdefault("rule", STDPRule(a_plus=1, a_minus=1))
    kwargs.setdefault("seed", 3)
    kwargs.setdefault("snapshot_every", 5)
    kwargs.setdefault("model_name", "tiny")
    return TrainingPlane(service, make_column(), alias=ALIAS, **kwargs)


class TestIncrementalTrainer:
    def test_presented_vs_applied(self):
        trainer = IncrementalTrainer(make_column(), seed=0)
        trainer.step(TrainingItem(volley=(INF,) * 8))  # silent: no winner
        trainer.step(TrainingItem(volley=(0,) * 8))
        assert trainer.presented == 2
        assert trainer.applied == 1

    def test_snapshot_resets_homeostatic_thresholds(self):
        column = make_column()
        base = list(column.thresholds)
        trainer = IncrementalTrainer(column, seed=0)
        for item in learning_items(10):
            trainer.step(item)
        assert list(column.thresholds) != base  # training inflated them
        trainer.compile_snapshot()
        assert list(column.thresholds) == base

    def test_foreign_trainer_rejected(self):
        from repro.learning.stdp import STDPTrainer

        with pytest.raises(ValueError, match="own column"):
            IncrementalTrainer(
                make_column(0), trainer=STDPTrainer(make_column(1))
            )


class TestPlaneLifecycle:
    def test_bootstrap_registers_and_aliases(self, service):
        plane = make_plane(service)
        fingerprint = plane.bootstrap()
        assert service.registry.resolve(ALIAS).model_id == fingerprint
        records = plane.lineage.records()
        assert len(records) == 1
        assert records[0].parent is None
        assert records[0].child == fingerprint

    def test_bootstrap_twice_rejected(self, service):
        plane = make_plane(service)
        plane.bootstrap()
        with pytest.raises(RuntimeError, match="bootstrapped"):
            plane.bootstrap()

    def test_cadence_snapshots_and_chains(self, service):
        plane = make_plane(service, snapshot_every=5)
        seed_fp = plane.bootstrap()
        for item in learning_items(10):
            plane.train_step(item)
        assert plane.snapshots >= 2  # seed + at least one cadence snapshot
        live = plane.live_fingerprint
        assert live != seed_fp
        chain = plane.lineage.chain(live)
        assert chain[0].child == seed_fp
        assert chain[-1].child == live
        assert service.registry.resolve(ALIAS).model_id == live

    def test_unchanged_snapshot_deduplicates(self, service):
        plane = make_plane(service)
        plane.bootstrap()
        before = len(plane.lineage)
        assert plane.snapshot() is None  # nothing trained since bootstrap
        assert len(plane.lineage) == before
        assert plane._since_snapshot == 0

    def test_promotion_retires_previous(self, service):
        plane = make_plane(service, snapshot_every=5)
        seed_fp = plane.bootstrap()
        for item in learning_items(5):
            plane.train_step(item)
        assert plane.live_fingerprint != seed_fp
        with pytest.raises(ServeError):
            service.registry.resolve(seed_fp)

    def test_lineage_head_resolves_while_a_snapshot_promotes(self, service):
        plane = make_plane(service, snapshot_every=5)
        seed_fp = plane.bootstrap()
        promote = service.promote
        heads = []

        def promote_then_read_head(*args, **kwargs):
            summary = promote(*args, **kwargs)
            head = plane.lineage.describe()["head"]
            heads.append(head)
            service.registry.resolve(head)  # raises no-such-model if retired
            return summary

        service.promote = promote_then_read_head
        for item in learning_items(5):
            plane.train_step(item)
        assert heads == [seed_fp]
        assert plane.live_fingerprint != seed_fp
        with pytest.raises(ServeError):
            service.registry.resolve(seed_fp)  # retired once the head moved

    def test_alias_serves_the_live_model(self, service):
        plane = make_plane(service)
        plane.bootstrap()
        volley = (0, 1, 2, 0, 1, 2, 0, 1)
        future = service.submit(ALIAS, volley)
        assert future.result(timeout=10) == service.direct(ALIAS, [volley])[0]

    def test_probe_recorded_in_lineage(self, service):
        plane = make_plane(service, probe=lambda: 0.5)
        plane.bootstrap()
        assert plane.lineage.records()[0].accuracy == 0.5
        assert plane.last_accuracy == 0.5

    def test_stats_shape(self, service):
        plane = make_plane(service)
        plane.bootstrap()
        stats = plane.stats()
        assert stats["alias"] == ALIAS
        assert stats["live"] == plane.live_fingerprint
        assert set(stats) == {
            "alias",
            "live",
            "presented",
            "applied",
            "snapshots",
            "promotions",
            "last_accuracy",
            "queue",
            "lineage",
        }


class TestPlaneThreaded:
    def test_ingest_to_promotion_end_to_end(self, service):
        plane = make_plane(service, snapshot_every=5)
        service.training = plane
        plane.start()
        seed_fp = plane.live_fingerprint
        accepted = sum(plane.ingest(item) for item in learning_items(25))
        deadline = time.monotonic() + 10.0
        while plane.incremental.presented < accepted:
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"trainer consumed {plane.incremental.presented} of "
                    f"{accepted} accepted items"
                )
            time.sleep(0.01)
        plane.stop()
        assert plane.incremental.presented == accepted
        assert plane.live_fingerprint != seed_fp
        assert service.registry.resolve(ALIAS).model_id == plane.live_fingerprint
        assert service.stats()["training"]["presented"] == accepted

    def test_stop_trains_the_remainder(self, service):
        plane = make_plane(service, snapshot_every=10_000)
        plane.bootstrap()
        for item in learning_items(7):
            plane.queue.put(item)
        plane.stop()  # never started: drain runs synchronously
        assert plane.incremental.presented == 7
