"""The serving frontend runs on one thread besides its caller's.

That thread is the pool's event loop (``serve-loop``): it arms batch
deadlines, dispatches, reads worker pipes and completes requests.  Each
case runs in a fresh interpreter, so no thread another test left behind
is counted: after a :class:`TNNService` has served through its pool —
and, through a process pool, again after a worker crash and its
replacement — ``threading.enumerate()`` lists the main thread and the
loop's, and after ``close()`` the main thread alone.  No process forks
once it runs a second thread: the frontend forks worker 0 alone, before
its loop starts, and worker 0 forks every other worker process.
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


FORK_SITES = """
import os, sys, threading, time

LOG = sys.argv[1]


def note(what):
    threads = None
    if os.path.exists("/proc/self/status"):
        with open("/proc/self/status") as status:
            threads = next(int(l.split()[1]) for l in status if l.startswith("Threads:"))
    with open(LOG, "a") as log:
        log.write(f"{what} {os.getpid()} {threading.active_count()} {threads}\\n")


_fork = os.fork


def fork():
    note("fork")
    return _fork()


os.fork = fork

from repro.serve import worker

_warm_main = worker._warm_main


def warm_main(conn):
    note("warm")
    _warm_main(conn)


# Module level, so a spawned worker 0, which runs this file again as
# ``__mp_main__``, notes its forks too.
worker._warm_main = warm_main


def wait_for(condition):
    deadline = time.monotonic() + 60
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


if __name__ == "__main__":
    from repro.serve.cli import serve_parser

    warm = worker.start_warm_worker()
    from repro.serve.demo import demo_column, demo_volleys
    from repro.serve.server import build_service
    from repro.testing import check_served

    args = serve_parser().parse_args(
        ["--smoke", "--workers", "2", "--no-result-cache", "--train"]
    )
    service = build_service(args, warm=warm)
    pool = service.pool

    def serve(seed):
        arity = service.registry.resolve("demo").input_arity
        report = check_served(service, "demo", demo_volleys(arity, 24, seed=seed))
        assert report.byte_identical and report.ok == 24, report.summary()

    serve(1)
    service.training.snapshot(force=True)
    pool.inject_crash(1)
    wait_for(lambda: pool.restarts == 1 and pool.alive_count() == 2)
    serve(2)
    pool.inject_crash(0)
    wait_for(lambda: pool.restarts == 2 and pool.alive_count() == 2)
    service.register(demo_column(5, smoke=True)[0])
    pool.inject_crash(1)
    wait_for(lambda: pool.restarts == 3 and pool.alive_count() == 2)
    serve(3)
    service.training.stop(final_snapshot=False)
    service.close()
    note("frontend")
"""


def test_every_fork_site_is_single_threaded(tmp_path):
    """Whoever forks — the frontend once, then worker 0 — runs one thread.

    Worker 0 forks its siblings, a crashed sibling's replacement and the
    builders (start-up registrations and a training snapshot); a
    replacement worker 0 is spawned, and forks the same way.  Each fork
    and each worker 0 start notes its process's Python and OS thread
    counts in a log.
    """
    script = tmp_path / "fork_sites.py"
    script.write_text(FORK_SITES, encoding="utf-8")
    log = tmp_path / "forks.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-W", "always::DeprecationWarning", str(script), str(log)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "multi-threaded" not in result.stderr
    notes = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    (frontend,) = [pid for what, pid, *_ in notes if what == "frontend"]
    warm = [pid for what, pid, *_ in notes if what == "warm"]
    forks = [(pid, int(py), threads) for what, pid, py, threads in notes if what == "fork"]
    # The frontend forked once, worker 0; a second worker 0 was spawned.
    assert [pid for pid, *_ in forks if pid == frontend] == [frontend]
    assert len(warm) == 2 and frontend not in warm
    # Both generations of worker 0 forked, and nobody else did.
    assert {pid for pid, *_ in forks} == {frontend, *warm}
    assert len(forks) >= 6
    for what, pid, py, threads in notes:
        if what in ("fork", "warm"):
            assert int(py) == 1, (what, pid, py)
            assert threads in ("1", "None"), (what, pid, threads)
