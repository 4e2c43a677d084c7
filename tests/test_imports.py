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
