"""Serving stdlib kernel demos: registration, targeting, byte-identity."""

import asyncio

from repro.kernels import KernelError, demo_network, kernel_names
from repro.serve.batcher import BatchPolicy
from repro.serve.loadgen import run_loadgen
from repro.serve.pool import InlineWorkerPool
from repro.serve.registry import ModelRegistry
from repro.serve.server import run_server_async
from repro.serve.service import TNNService


def make_kernel_service(*names):
    registry = ModelRegistry()
    for name in names:
        registry.register(demo_network(name), name=f"kernel:{name}")
    return TNNService(
        registry,
        InlineWorkerPool(registry.programs()),
        policy=BatchPolicy(max_batch=16, max_wait_s=0.001),
    )


def drive_kernel(kernel, *, served=None, **loadgen_kwargs):
    """Serve the kernel demo in-process and loadgen it with --kernel."""

    async def main():
        service = make_kernel_service(*(served or [kernel]))
        ready = asyncio.get_running_loop().create_future()
        server_task = asyncio.ensure_future(
            run_server_async(service, port=0, ready=ready)
        )
        port = await ready
        loadgen_kwargs.setdefault("shutdown", True)
        try:
            return await run_loadgen(
                port=port, kernel=kernel, **loadgen_kwargs
            )
        finally:
            await asyncio.wait_for(server_task, timeout=20)

    return asyncio.run(main())


class TestKernelServing:
    def test_barrier_round_trip_byte_identical(self):
        report = drive_kernel("barrier", requests=40, concurrency=4)
        assert report["ok"] == 40
        assert report["mismatches"] == 0
        assert report["failed"] == 0

    def test_multi_kernel_registry_targets_the_right_model(self):
        report = drive_kernel(
            "accumulator",
            served=["barrier", "accumulator", "latch"],
            requests=30,
            concurrency=3,
        )
        assert report["ok"] == 30
        assert report["mismatches"] == 0

    def test_fingerprint_handshake_rejects_wrong_kernel(self):
        import pytest

        from repro.serve.loadgen import LoadgenError

        with pytest.raises(LoadgenError, match="fingerprint"):
            # Server has the router demo registered under the name the
            # loadgen targets; the local latch oracle must refuse it.
            async def main():
                registry = ModelRegistry()
                registry.register(demo_network("router"), name="kernel:latch")
                service = TNNService(
                    registry,
                    InlineWorkerPool(registry.programs()),
                    policy=BatchPolicy(max_batch=16, max_wait_s=0.001),
                )
                ready = asyncio.get_running_loop().create_future()
                server_task = asyncio.ensure_future(
                    run_server_async(service, port=0, ready=ready)
                )
                port = await ready
                try:
                    return await run_loadgen(
                        port=port, kernel="latch", requests=5, concurrency=1
                    )
                finally:
                    r, w = await asyncio.open_connection("127.0.0.1", port)
                    w.write(b'{"op":"shutdown"}\n')
                    await w.drain()
                    await r.readline()
                    w.close()
                    await asyncio.wait_for(server_task, timeout=20)

            asyncio.run(main())

    def test_every_registry_kernel_serves(self):
        for name in kernel_names():
            report = drive_kernel(name, requests=10, concurrency=2)
            assert report["ok"] == 10, name
            assert report["mismatches"] == 0, name

    def test_unknown_kernel_name_raises(self):
        import pytest

        with pytest.raises(KernelError, match="unknown kernel"):
            asyncio.run(run_loadgen(port=1, kernel="bogus", requests=1))
