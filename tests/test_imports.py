"""Import hygiene of the lazily loaded ``repro`` package.

``repro/__init__.py`` resolves its subpackages on first access, so each
one must import cleanly on its own, in an interpreter where nothing else
of the package has been loaded yet.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [name for name in repro.__all__ if name != "__version__"]

#: Subpackages the serving front end must not load.
NOT_SERVED = ("analysis", "apps", "learning", "racelogic", "testing", "kernels", "train")

#: Modules of the loaded subpackages that serving never uses.
NOT_SERVED_MODULES = (
    "repro.core.synthesis",
    "repro.core.completeness",
    "repro.core.minimize",
    "repro.core.properties",
    "repro.network.events",
    "repro.network.simulator",
    "repro.network.timing",
    "repro.network.stats",
    "repro.network.generate",
    "repro.network.validate",
    "repro.neuron.column",
    "repro.neuron.layers",
    "repro.neuron.weights",
    "repro.neuron.wta",
    "repro.obs.trace",
    # The build path: builders, which worker 0 forks, build each model.
    "repro.ir.passes",
    "repro.ir.sorters",
)

#: Every ``repro`` module a started ``--model-file`` server's frontend
#: loads: the serving stack and the demo model's recipe.  The IR passes
#: that build each served program load in worker 0, and the batch engine
#: (``repro.network.compile_plan``) and NumPy only in the worker
#: processes, which evaluate.
SERVED_MODULES = {
    "repro",
    "repro.core",
    "repro.core.value",
    "repro.ir",
    "repro.ir.program",
    "repro.network",
    "repro.network.blocks",
    "repro.network.builder",
    "repro.network.graph",
    "repro.network.serialize",
    "repro.network.sorting",
    "repro.neuron",
    "repro.neuron.response",
    "repro.neuron.srm0",
    "repro.neuron.srm0_network",
    "repro.obs",
    "repro.obs.hist",
    "repro.obs.metrics",
    "repro.obs.profile",
    "repro.obs.rtrace",
    "repro.runtime",
    "repro.runtime.result_cache",
    "repro.serve",
    "repro.serve.batcher",
    "repro.serve.cli",
    "repro.serve.demo",
    "repro.serve.pool",
    "repro.serve.protocol",
    "repro.serve.registry",
    "repro.serve.server",
    "repro.serve.service",
    "repro.serve.worker",
}

#: Every ``repro`` module worker 0 holds once it serves: the engine, the
#: build path its builders run, and ``python -m repro serve``'s command
#: line, imported before the fork.  No asyncio and none of the
#: frontend's serving stack (service, server, batcher, request tracing).
WARM_WORKER_MODULES = {
    "repro",
    "repro.core",
    "repro.core.value",
    "repro.ir",
    "repro.ir.passes",
    "repro.ir.program",
    "repro.ir.sorters",
    "repro.network",
    "repro.network.blocks",
    "repro.network.builder",
    "repro.network.compile_plan",
    "repro.network.graph",
    "repro.network.serialize",
    "repro.network.sorting",
    "repro.obs",
    "repro.obs.hist",
    "repro.obs.metrics",
    "repro.obs.profile",
    "repro.runtime",
    "repro.runtime.result_cache",
    "repro.serve",
    "repro.serve.cli",
    "repro.serve.protocol",
    "repro.serve.registry",
    "repro.serve.worker",
}

#: Subpackages whose public names load on first access.
LAZY = ("core", "ir", "network", "neuron", "obs")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_package_import_loads_no_subpackage():
    result = run_fresh(
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.')))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_attribute_access_imports_the_subpackage():
    assert repro.network is sys.modules["repro.network"]
    assert "network" in dir(repro)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        repro.nonexistent  # noqa: B018


@pytest.mark.parametrize("module", [*SUBPACKAGES, "train", "serve.server"])
def test_imports_alone_in_a_fresh_interpreter(module):
    result = run_fresh(f"import repro.{module}")
    assert result.returncode == 0, result.stderr


def test_serving_front_end_loads_only_what_serving_uses():
    result = run_fresh(
        "import sys, repro.serve.server; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro.'))))"
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert "repro.serve.server" in loaded
    assert [name for name in loaded if name.split(".")[1] in NOT_SERVED] == []


def test_started_server_loads_the_served_modules(tmp_path):
    """The frontend of a started server imports neither NumPy nor the engine.

    Nor does it import the IR passes: builders, forked by worker 0,
    build every model.  Every worker process imports NumPy: its
    extension module is mapped there (read from ``/proc`` where there is
    one).
    """
    from repro.network import serialize
    from repro.serve.demo import demo_column

    model = tmp_path / "column.json"
    serialize.save(demo_column(3, smoke=True)[0], model)
    result = run_fresh(
        "import argparse, os, sys\n"
        "from repro.serve.cli import add_serve_arguments\n"
        "from repro.serve.server import build_service\n"
        "parser = argparse.ArgumentParser()\n"
        "add_serve_arguments(parser)\n"
        "args = parser.parse_args(\n"
        f"    ['--smoke', '--workers', '2', '--model-file', {str(model)!r}]\n"
        ")\n"
        "service = build_service(args)\n"
        "for worker in service.pool._workers:\n"
        "    maps = f'/proc/{worker.pid}/maps'\n"
        "    if os.path.exists(maps):\n"
        "        assert '_multiarray_umath' in open(maps).read(), 'worker has no NumPy'\n"
        "service.close()\n"
        "loaded = [m for m in sys.modules if m.startswith(('repro', 'numpy'))]\n"
        "print(' '.join(sorted(loaded)))"
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "numpy" not in loaded
    assert loaded.isdisjoint(NOT_SERVED_MODULES), sorted(loaded & set(NOT_SERVED_MODULES))
    assert loaded == SERVED_MODULES


def test_warm_worker_loads_the_engine_and_build_path_only():
    """Worker 0, forked as ``python -m repro serve`` forks it, before a load.

    A patched ``load_program`` (inherited through the fork) reports the
    worker's modules instead of loading.
    """
    result = run_fresh(
        "import sys\n"
        "import repro.serve.cli\n"
        "from repro.serve import worker\n"
        "def report(model_id, *load):\n"
        "    raise RuntimeError(' '.join(sorted(sys.modules)))\n"
        "worker.load_program = report\n"
        "process, conn = worker.start_warm_worker()\n"
        "assert conn.recv()[0] == 'ready'\n"
        "conn.send(('load', 'f' * 64, 'f' * 64, b''))\n"
        "op, _model, reason = conn.recv()\n"
        "conn.send(('stop',))\n"
        "process.join()\n"
        "print(reason.removeprefix('RuntimeError: '))"
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "numpy" in loaded and "asyncio" not in loaded
    assert {m for m in loaded if m.startswith("repro")} == WARM_WORKER_MODULES


def test_worker_imports_the_engine_by_its_first_load():
    """The worker body, run on a thread of a NumPy-free interpreter."""
    result = run_fresh(
        "import multiprocessing as mp, pickle, sys, threading\n"
        "from repro.serve.demo import demo_column\n"
        "from repro.serve.worker import _worker_main\n"
        "from repro.serve.registry import ModelRegistry\n"
        "entry = ModelRegistry().register(demo_column(3, smoke=True)[0])\n"
        "engine = ('numpy', 'repro.network.compile_plan')\n"
        "assert not any(m in sys.modules for m in engine)\n"
        "parent, child = mp.Pipe()\n"
        "threading.Thread(target=_worker_main, args=(child,), daemon=True).start()\n"
        "assert parent.recv()[0] == 'ready'\n"
        "program = pickle.dumps(entry.program)\n"
        "parent.send(('load', entry.model_id, entry.program.fingerprint(), program))\n"
        "assert parent.recv()[0] == 'loaded'\n"
        "assert all(m in sys.modules for m in engine)\n"
        "parent.send(('stop',))"
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("package", LAZY)
def test_every_public_name_resolves_in_a_fresh_interpreter(package):
    result = run_fresh(
        f"import types, repro.{package} as package\n"
        "for name in package.__all__:\n"
        "    value = getattr(package, name)\n"
        "    assert not isinstance(value, types.ModuleType), name\n"
        "assert set(package.__all__) <= set(dir(package))"
    )
    assert result.returncode == 0, result.stderr


def test_a_loaded_submodule_does_not_shadow_its_namesake_export():
    """``network.compile_plan`` etc. stay the functions, whatever loaded first."""
    result = run_fresh(
        "import repro.core.minimize, repro.network.compile_plan\n"
        "import repro.network.validate, repro.neuron.wta\n"
        "from repro.core import minimize\n"
        "from repro.network import compile_plan, validate\n"
        "from repro.neuron import wta\n"
        "for value in (minimize, compile_plan, validate, wta):\n"
        "    assert callable(value) and value.__name__ in value.__module__, value"
    )
    assert result.returncode == 0, result.stderr
