"""End-to-end tests of the asyncio NDJSON front-end (inline pool, port 0)."""

import asyncio
import json

import pytest

from repro.core.value import INF
from repro.serve.batcher import BatchPolicy
from repro.serve.demo import demo_column
from repro.serve.pool import InlineWorkerPool
from repro.serve.protocol import PROTOCOL, canonical, encode_line, eval_request, ok_response
from repro.serve.registry import ModelRegistry
from repro.serve.server import run_server_async
from repro.serve.service import TNNService


def make_service():
    registry = ModelRegistry()
    registry.register(demo_column(0, smoke=True)[0], name="demo")
    return TNNService(
        registry,
        InlineWorkerPool(registry.documents()),
        policy=BatchPolicy(max_batch=8, max_wait_s=0.001),
    )


async def request(reader, writer, message):
    writer.write(encode_line(message))
    await writer.drain()
    return json.loads(await reader.readline())


def run_session(session):
    """Start a server on port 0 and run *session(reader, writer, service)*.

    The session coroutine must end by sending the ``shutdown`` op (or the
    server is shut down for it).
    """

    async def main():
        service = make_service()
        ready = asyncio.get_running_loop().create_future()
        server_task = asyncio.ensure_future(
            run_server_async(service, port=0, ready=ready)
        )
        port = await ready
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            result = await session(reader, writer, service)
        finally:
            await request(reader, writer, {"op": "shutdown"})
            writer.close()
            await asyncio.wait_for(server_task, timeout=15)
        return result

    return asyncio.run(main())


class TestOps:
    def test_health(self):
        async def session(reader, writer, service):
            reply = await request(reader, writer, {"op": "health"})
            assert reply["ok"] and reply["protocol"] == PROTOCOL
            assert reply["status"] == "serving"
            assert reply["models"] == 1
            return reply

        run_session(session)

    def test_models_lists_demo(self):
        async def session(reader, writer, service):
            reply = await request(reader, writer, {"op": "models"})
            [model] = reply["models"]
            assert model["name"] == "demo"
            assert model["id"] == service.registry.resolve("demo").model_id
            assert model["inputs"] and model["outputs"]

        run_session(session)

    def test_metrics_payload(self):
        async def session(reader, writer, service):
            reply = await request(reader, writer, {"op": "metrics"})
            assert reply["ok"]
            assert "serve" in reply and "cache" in reply
            assert "plan_cache" not in reply
            assert "batch_size" in reply["serve"]

        run_session(session)


class TestEval:
    def test_response_is_byte_identical_to_direct(self):
        async def session(reader, writer, service):
            volley = (2, INF)
            writer.write(encode_line(eval_request(5, "demo", volley)))
            await writer.drain()
            line = (await reader.readline()).decode().rstrip("\n")
            [direct] = service.direct("demo", [volley])
            assert line == canonical(ok_response(5, direct))

        run_session(session)

    def test_pipelined_out_of_order_ids(self):
        async def session(reader, writer, service):
            volleys = [(i, 0) for i in range(10)]
            for i, volley in enumerate(volleys):
                writer.write(encode_line(eval_request(i, "demo", volley)))
            await writer.drain()
            replies = {}
            for _ in volleys:
                reply = json.loads(await reader.readline())
                replies[reply["id"]] = reply
            assert sorted(replies) == list(range(10))
            direct = service.direct("demo", volleys)
            for i, row in enumerate(direct):
                assert canonical(replies[i]) == canonical(ok_response(i, row))

        run_session(session)

    def test_unknown_model_error(self):
        async def session(reader, writer, service):
            reply = await request(
                reader, writer, eval_request(1, "missing-model", (0, 1))
            )
            assert reply["ok"] is False and reply["code"] == "no-such-model"
            assert reply["id"] == 1

        run_session(session)

    def test_wrong_arity_error(self):
        async def session(reader, writer, service):
            reply = await request(reader, writer, eval_request(2, "demo", (0, 1, 2)))
            assert reply["code"] == "bad-request"

        run_session(session)

    def test_malformed_line_gets_bad_request(self):
        async def session(reader, writer, service):
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False and reply["code"] == "bad-request"
            assert reply["id"] is None
            # The connection survives a bad line.
            health = await request(reader, writer, {"op": "health"})
            assert health["ok"]

        run_session(session)

    def test_blank_lines_ignored(self):
        async def session(reader, writer, service):
            writer.write(b"\n\n")
            reply = await request(reader, writer, {"op": "health"})
            assert reply["ok"]

        run_session(session)


class TestLifecycle:
    def test_shutdown_op_acknowledged_and_drained(self):
        async def main():
            service = make_service()
            ready = asyncio.get_running_loop().create_future()
            server_task = asyncio.ensure_future(
                run_server_async(service, port=0, ready=ready)
            )
            port = await ready
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            reply = await request(reader, writer, {"op": "shutdown"})
            assert reply["ok"] and reply["status"] == "shutting-down"
            writer.close()
            assert await asyncio.wait_for(server_task, timeout=15) == 0
            # Drained: admission is closed afterwards.
            with pytest.raises(Exception):
                service.submit("demo", (0, 1))

        asyncio.run(main())

    def test_port_file_written(self, tmp_path):
        port_file = tmp_path / "port"

        async def main():
            service = make_service()
            ready = asyncio.get_running_loop().create_future()
            server_task = asyncio.ensure_future(
                run_server_async(service, port=0, ready=ready, port_file=str(port_file))
            )
            port = await ready
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await request(reader, writer, {"op": "shutdown"})
            writer.close()
            await asyncio.wait_for(server_task, timeout=15)
            return port

        port = asyncio.run(main())
        assert int(port_file.read_text().strip()) == port

    def test_metrics_out_written(self, tmp_path):
        metrics_file = tmp_path / "metrics.json"

        async def main():
            service = make_service()
            ready = asyncio.get_running_loop().create_future()
            server_task = asyncio.ensure_future(
                run_server_async(
                    service, port=0, ready=ready, metrics_out=str(metrics_file)
                )
            )
            port = await ready
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await request(reader, writer, eval_request(1, "demo", (0, 1)))
            await request(reader, writer, {"op": "shutdown"})
            writer.close()
            await asyncio.wait_for(server_task, timeout=15)

        asyncio.run(main())
        payload = json.loads(metrics_file.read_text())
        assert payload["ok"] and "serve" in payload and "metrics" in payload
