"""Wire-level tests of the training-plane ops: train, lineage, promote,
model_doc, and the training telemetry sections."""

import asyncio
import json
import random

import numpy as np
import pytest

from repro.learning.stdp import STDPRule
from repro.network import serialize
from repro.neuron.column import Column
from repro.neuron.response import ResponseFunction
from repro.serve.batcher import BatchPolicy
from repro.serve.pool import InlineWorkerPool
from repro.serve.protocol import encode_line
from repro.serve.registry import ModelRegistry
from repro.serve.server import run_server_async
from repro.serve.service import TNNService
from repro.train import TrainingPlane

ALIAS = "tiny@live"
BASE = ResponseFunction.step(amplitude=1, width=8)
N_INPUTS = 8


def make_column(seed=0):
    rng = random.Random(seed)
    weights = np.array(
        [[rng.randint(1, 3) for _ in range(N_INPUTS)] for _ in range(3)]
    )
    return Column(weights, threshold=6, base_response=BASE)


def make_trained_service():
    registry = ModelRegistry()
    service = TNNService(
        registry,
        InlineWorkerPool(registry.programs()),
        policy=BatchPolicy(max_batch=8, max_wait_s=0.001),
    )
    plane = TrainingPlane(
        service,
        make_column(),
        alias=ALIAS,
        rule=STDPRule(a_plus=1, a_minus=1),
        seed=3,
        snapshot_every=5,
        model_name="tiny",
    )
    service.training = plane
    plane.start()
    return service


def make_plain_service():
    registry = ModelRegistry()
    from repro.serve.demo import demo_column

    registry.register(demo_column(0, smoke=True)[0], name="demo")
    return TNNService(
        registry,
        InlineWorkerPool(registry.programs()),
        policy=BatchPolicy(max_batch=8, max_wait_s=0.001),
    )


async def request(reader, writer, message):
    writer.write(encode_line(message))
    await writer.drain()
    return json.loads(await reader.readline())


def run_session(session, *, make_service=make_trained_service):
    async def main():
        service = make_service()
        ready = asyncio.get_running_loop().create_future()
        server_task = asyncio.ensure_future(
            run_server_async(service, port=0, ready=ready)
        )
        port = await ready
        # Serialized documents can exceed asyncio's 64 KiB default
        # readline limit; model_doc clients must raise it.
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=16 << 20
        )
        try:
            result = await session(reader, writer, service)
        finally:
            await request(reader, writer, {"op": "shutdown"})
            writer.close()
            await asyncio.wait_for(server_task, timeout=15)
        return result

    return asyncio.run(main())


def training_volleys(count, seed=1):
    rng = random.Random(seed)
    return [
        [rng.randint(0, 2) for _ in range(N_INPUTS)] for _ in range(count)
    ]


async def wait_presented(service, count, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while service.training.stats()["presented"] < count:
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(
                f"plane presented {service.training.stats()['presented']} "
                f"of {count}"
            )
        await asyncio.sleep(0.02)


async def wait_no_snapshot_in_flight(service, timeout=10.0):
    """Until the snapshot the last presented volley may have started is done.

    A due snapshot runs on the plane's thread until it resets the cadence
    count below ``snapshot_every``.
    """
    plane = service.training
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        with plane._state_lock:
            if plane._since_snapshot < plane.snapshot_every:
                return
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("a snapshot is still running")
        await asyncio.sleep(0.02)


class TestTrainOp:
    def test_train_accepted_and_consumed(self):
        async def session(reader, writer, service):
            for i, volley in enumerate(training_volleys(12)):
                reply = await request(
                    reader,
                    writer,
                    {"op": "train", "id": i, "volley": volley, "label": 0},
                )
                assert reply == {"id": i, "ok": True, "accepted": True}
            await wait_presented(service, 12)

        run_session(session)

    def test_wrong_arity_rejected(self):
        async def session(reader, writer, service):
            reply = await request(
                reader, writer, {"op": "train", "id": 1, "volley": [0, 1]}
            )
            assert reply["ok"] is False and reply["code"] == "bad-request"
            assert str(N_INPUTS) in reply["error"]

        run_session(session)

    def test_train_without_plane_rejected(self):
        async def session(reader, writer, service):
            reply = await request(
                reader, writer, {"op": "train", "id": 1, "volley": [0, 1]}
            )
            assert reply["ok"] is False and reply["code"] == "bad-request"
            assert "training plane" in reply["error"]

        run_session(session, make_service=make_plain_service)


class TestLineageOp:
    def test_full_document(self):
        async def session(reader, writer, service):
            for i, volley in enumerate(training_volleys(10)):
                await request(
                    reader, writer, {"op": "train", "id": i, "volley": volley}
                )
            await wait_presented(service, 10)
            await wait_no_snapshot_in_flight(service)
            reply = await request(reader, writer, {"op": "lineage", "id": 90})
            assert reply["ok"] and reply["id"] == 90
            lineage = reply["lineage"]
            assert lineage["format"] == "repro.lineage/1"
            assert lineage["alias"] == ALIAS
            assert lineage["snapshots"] >= 2  # seed + at least one cadence
            assert lineage["records"][0]["parent"] is None
            assert lineage["head"] == service.training.live_fingerprint

        run_session(session)

    def test_chain_for_one_model(self):
        async def session(reader, writer, service):
            live = service.training.live_fingerprint
            reply = await request(
                reader, writer, {"op": "lineage", "model": live}
            )
            assert reply["ok"]
            assert reply["lineage"]["records"][-1]["child"] == live

        run_session(session)

    def test_unknown_model_rejected(self):
        async def session(reader, writer, service):
            reply = await request(
                reader, writer, {"op": "lineage", "model": "f" * 64}
            )
            assert reply["ok"] is False and reply["code"] == "no-such-model"

        run_session(session)

    def test_without_plane_rejected(self):
        async def session(reader, writer, service):
            reply = await request(reader, writer, {"op": "lineage"})
            assert reply["ok"] is False and reply["code"] == "bad-request"

        run_session(session, make_service=make_plain_service)


class TestPromoteOp:
    def test_self_promotion_over_the_wire(self):
        async def session(reader, writer, service):
            live = service.training.live_fingerprint
            reply = await request(
                reader,
                writer,
                {"op": "promote", "id": 7, "alias": ALIAS, "model": live},
            )
            assert reply["ok"] and reply["id"] == 7
            assert reply["alias"] == ALIAS
            assert reply["model"] == live
            assert reply["warmed"] is True
            assert reply["retired"] is None

        run_session(session)

    def test_unknown_target_rejected(self):
        async def session(reader, writer, service):
            reply = await request(
                reader,
                writer,
                {"op": "promote", "id": 8, "alias": ALIAS, "model": "f" * 64},
            )
            assert reply["ok"] is False and reply["code"] == "no-such-model"

        run_session(session)


class TestModelDocOp:
    def test_document_rebuilds_to_the_same_fingerprint(self):
        async def session(reader, writer, service):
            live = service.training.live_fingerprint
            reply = await request(
                reader, writer, {"op": "model_doc", "id": 3, "model": ALIAS}
            )
            assert reply["ok"] and reply["model"] == live
            rebuilt = serialize.loads(reply["document"])
            assert rebuilt.fingerprint() == live

        run_session(session)

    def test_unknown_model_rejected(self):
        async def session(reader, writer, service):
            reply = await request(
                reader, writer, {"op": "model_doc", "model": "f" * 64}
            )
            assert reply["ok"] is False and reply["code"] == "no-such-model"

        run_session(session)


class TestTelemetry:
    def test_eval_with_want_model_id(self):
        async def session(reader, writer, service):
            live = service.training.live_fingerprint
            volley = [0] * N_INPUTS
            reply = await request(
                reader,
                writer,
                {
                    "op": "eval",
                    "id": 1,
                    "model": ALIAS,
                    "volley": volley,
                    "want_model_id": True,
                },
            )
            assert reply["ok"] and reply["model"] == live

        run_session(session)

    def test_models_op_reports_aliases(self):
        async def session(reader, writer, service):
            reply = await request(reader, writer, {"op": "models"})
            assert reply["ok"]
            assert reply["aliases"][ALIAS] == service.training.live_fingerprint

        run_session(session)

    def test_metrics_training_section(self):
        async def session(reader, writer, service):
            reply = await request(reader, writer, {"op": "metrics"})
            training = reply["serve"]["training"]
            assert training["alias"] == ALIAS
            assert training["live"] == service.training.live_fingerprint

        run_session(session)

    def test_metrics_text_training_gauges(self):
        async def session(reader, writer, service):
            reply = await request(reader, writer, {"op": "metrics_text"})
            assert reply["ok"]
            text = reply["text"]
            for gauge in (
                "repro_training_presented",
                "repro_training_applied",
                "repro_training_snapshots",
                "repro_training_promotions",
                "repro_training_queue_depth",
                "repro_training_queue_dropped",
            ):
                assert gauge in text

        run_session(session)
