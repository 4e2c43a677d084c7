"""The serving frontend runs on one thread besides its caller's.

That thread is the pool's event loop (``serve-loop``): it arms batch
deadlines, dispatches, reads worker pipes and completes requests.  Each
case runs in a fresh interpreter, so no thread another test left behind
is counted: after a :class:`TNNService` has served through its pool —
and, through a process pool, again after a worker crash and its
replacement — ``threading.enumerate()`` lists the main thread and the
loop's, and after ``close()`` the main thread alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SCRIPT = """
import threading, time
from repro.serve.batcher import BatchPolicy
from repro.serve.demo import demo_column, demo_volleys
from repro.serve.pool import InlineWorkerPool, ProcessWorkerPool
from repro.serve.registry import ModelRegistry
from repro.serve.service import TNNService
from repro.testing import check_served

def threads():
    return sorted(thread.name for thread in threading.enumerate())

def serve(service, seed):
    arity = service.registry.resolve("demo").input_arity
    report = check_served(service, "demo", demo_volleys(arity, 24, seed=seed))
    assert report.byte_identical and report.ok == 24, report.summary()

registry = ModelRegistry()
registry.register(demo_column(0, smoke=True)[0], name="demo")
pool = {pool}
service = TNNService(registry, pool, policy=BatchPolicy(max_batch=8, max_wait_s=0.002))
serve(service, 1)
print(threads())
if isinstance(pool, ProcessWorkerPool):
    pool.inject_crash(0)
    deadline = time.monotonic() + 30
    while not (pool.restarts == 1 and pool.alive_count() == 1):
        assert time.monotonic() < deadline, "the crashed worker was not replaced"
        time.sleep(0.01)
    serve(service, 2)
    print(threads())
service.close()
print(threads())
"""

POOLS = {
    "process": "ProcessWorkerPool(registry.programs(), n_workers=1)",
    "inline": "InlineWorkerPool(registry.programs())",
}


@pytest.mark.parametrize("kind", sorted(POOLS))
def test_service_runs_on_the_caller_and_one_loop_thread(kind):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT.replace("{pool}", POOLS[kind])],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    *serving, closed = result.stdout.splitlines()
    assert serving == ["['MainThread', 'serve-loop']"] * (2 if kind == "process" else 1)
    assert closed == "['MainThread']"
