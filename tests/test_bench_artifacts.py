"""Every committed ``BENCH_*.json`` says which bench wrote it and where.

An artifact whose bench is gone cannot be regenerated, and one without
its ``env`` header cannot be compared with another run.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = sorted(ROOT.glob("BENCH_*.json"))

ENV_KEYS = {"commit", "python", "numpy", "cpus", "machine"}


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda path: path.name)
def test_artifact_names_its_bench_and_env(path):
    data = json.loads(path.read_text())
    bench = ROOT / "benchmarks" / f"{data['benchmark']}.py"
    assert bench.is_file(), f"{path.name}: no bench at {bench.name}"
    missing = ENV_KEYS - set(data.get("env", {}))
    assert not missing, f"{path.name}: env lacks {sorted(missing)}"
