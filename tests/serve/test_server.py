"""End-to-end tests of the asyncio NDJSON front-end (inline pool, port 0)."""

import asyncio
import gc
import json
import logging
import socket
import struct
import threading
import time

import pytest

from repro.core.value import INF
from repro.serve.batcher import BatchPolicy
from repro.serve.demo import demo_column
from repro.serve.pool import InlineWorkerPool
from repro.serve.protocol import PROTOCOL, canonical, encode_line, eval_request, ok_response
from repro.serve.registry import ModelRegistry
from repro.serve.server import MAX_LINE_BYTES, _handle_connection, run_server_async
from repro.serve.service import TNNService

from .test_service import HoldingPool


def make_service():
    registry = ModelRegistry()
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
            assert "id" not in reply  # only a request's own id is echoed
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
            assert "serve" in reply and "cache" not in reply
            # The result cache's one JSON view is the serve section's.
            assert {"enabled", "hits", "misses"} <= set(reply["serve"]["result_cache"])
            assert "batch_size" in reply["serve"]

        run_session(session)

    def test_control_replies_echo_id_between_pipelined_evals(self):
        async def session(reader, writer, service):
            ops = ["health", "metrics", "metrics_text", "models"]
            for i, op in enumerate(ops):
                writer.write(encode_line(eval_request(i, "demo", (i, 0))))
                writer.write(encode_line({"op": op, "id": op}))
            await writer.drain()
            replies = {}
            for _ in range(2 * len(ops)):
                reply = json.loads(await reader.readline())
                replies[reply["id"]] = reply
            assert set(replies) == set(range(len(ops))) | set(ops)
            assert replies["health"]["status"] == "serving"
            assert "serve" in replies["metrics"]
            assert "text" in replies["metrics_text"]
            assert replies["models"]["models"][0]["name"] == "demo"
            for i in range(len(ops)):
                assert replies[i]["outputs"] is not None

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


class TestWireHardening:
    def test_oversized_line_gets_typed_error_and_server_survives(self):
        async def main():
            service = make_service()
            ready = asyncio.get_running_loop().create_future()
            server_task = asyncio.ensure_future(
                run_server_async(service, port=0, ready=ready)
            )
            port = await ready
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for i in range(3):  # in flight when the long line arrives
                writer.write(encode_line(eval_request(i, "demo", (i, 0))))
            writer.write(b'{"op": "health", "pad": "' + b"x" * 70 * 1024 + b'"}\n')
            await writer.drain()
            # The server answers the evals and the long line, then closes.
            replies = [json.loads(line) for line in (await reader.read()).splitlines()]
            writer.close()
            [error] = [reply for reply in replies if not reply["ok"]]
            assert error["code"] == "bad-request" and error["id"] is None
            assert error["error"] == f"line exceeds {MAX_LINE_BYTES} bytes"
            assert sorted(reply["id"] for reply in replies if reply["ok"]) == [0, 1, 2]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            health = await request(reader, writer, {"op": "health"})
            assert health["ok"] and health["pending"] == 0
            assert service.pending() == 0
            await request(reader, writer, {"op": "shutdown"})
            writer.close()
            await asyncio.wait_for(server_task, timeout=15)

        asyncio.run(main())

    def test_a_client_that_stops_reading_is_not_read(self):
        class ScriptedReader:
            def __init__(self, lines):
                self.lines = list(lines)
                self.reads = 0

            async def readline(self):
                self.reads += 1
                return self.lines.pop(0) if self.lines else b""

        class HeldWriter:
            """A writer whose ``drain`` blocks until the test releases it."""

            def __init__(self):
                self.data = []
                self.held = threading.Event()
                self.release = asyncio.Event()
                self.closed = False

            def write(self, data):
                self.data.append(data)

            def is_closing(self):
                return self.closed

            async def drain(self):
                self.held.set()
                await self.release.wait()

            def close(self):
                self.closed = True

            async def wait_closed(self):
                pass

        service = make_service()
        loop = service.pool.loop
        volleys = [(i, 0) for i in range(5)]
        reader = ScriptedReader(
            encode_line(eval_request(i, "demo", volley))
            for i, volley in enumerate(volleys)
        )
        writer = HeldWriter()
        try:
            handled = asyncio.run_coroutine_threadsafe(
                _handle_connection(service, reader, writer, asyncio.Event()), loop
            )
            assert writer.held.wait(5)
            time.sleep(0.05)  # room for a reader that ignores back-pressure
            assert reader.reads == 1
            loop.call_soon_threadsafe(writer.release.set)
            handled.result(5)
        finally:
            loop.call_soon_threadsafe(writer.release.set)
            service.close()
        assert writer.closed and reader.reads == len(volleys) + 1
        replies = sorted(
            (json.loads(line) for line in writer.data), key=lambda r: r["id"]
        )
        direct = service.direct("demo", volleys)
        assert [canonical(reply) for reply in replies] == [
            canonical(ok_response(i, row)) for i, row in enumerate(direct)
        ]

    def test_an_abandoned_connection_leaks_nothing(self, caplog):
        registry = ModelRegistry()
        registry.register(demo_column(0, smoke=True)[0], name="demo")
        pool = HoldingPool()
        service = TNNService(
            registry, pool, policy=BatchPolicy(max_batch=4, max_wait_s=0.001)
        )
        k = 16

        def settle(condition):
            deadline = time.monotonic() + 5
            while not condition():
                assert time.monotonic() < deadline
                time.sleep(0.005)

        async def main():
            ready = asyncio.get_running_loop().create_future()
            server_task = asyncio.ensure_future(
                run_server_async(service, port=0, ready=ready)
            )
            port = await ready
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.sendall(
                    b"".join(
                        encode_line(eval_request(i, "demo", (i, 0))) for i in range(k)
                    )
                )
                settle(lambda: service.pending() == k)  # all admitted, none answered
                # Linger 0: closing sends a reset, not a FIN.
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            time.sleep(0.1)  # the server sees the reset

            def release():  # on the loop, where a real pool finishes jobs
                pool.loop.call_soon_threadsafe(pool.release_all, registry)
                return service.pending() == 0

            settle(release)
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                stream = sock.makefile("rwb")
                stream.write(encode_line(eval_request(99, "demo", (2, INF))))
                stream.flush()
                settle(lambda: service.pending() == 1)
                settle(release)
                line = stream.readline().decode().rstrip("\n")
                stream.write(encode_line({"op": "shutdown"}))
                stream.flush()
                stream.readline()
            await asyncio.wait_for(server_task, timeout=15)
            return line

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            line = asyncio.run(main())
            gc.collect()
        [direct] = service.direct("demo", [(2, INF)])
        assert line == canonical(ok_response(99, direct))
        assert service.pending() == 0
        logged = caplog.text
        assert "exception was never retrieved" not in logged
        assert "socket.send() raised exception" not in logged

    def test_connection_reset_ends_quietly(self):
        class ResetReader:
            async def readline(self):
                raise ConnectionResetError("peer reset")

        class Writer:
            closed = False

            def close(self):
                self.closed = True

            async def wait_closed(self):
                pass

        async def main():
            writer = Writer()
            await _handle_connection(None, ResetReader(), writer, asyncio.Event())
            return writer

        assert asyncio.run(main()).closed


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
            reply = await request(reader, writer, {"op": "shutdown", "id": "bye"})
            assert reply["ok"] and reply["status"] == "shutting-down"
            assert reply["id"] == "bye"
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
