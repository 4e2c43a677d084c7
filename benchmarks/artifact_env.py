"""The ``env`` header every ``BENCH_*.json`` artifact carries.

Benchmarks import :func:`env_header` from here so an artifact records
where and how it was measured — commit, Python and NumPy versions, CPU
count, machine, ``REPRO_NATIVE`` mode and whether Numba is importable —
and two artifacts can be compared knowing what differed.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from repro.native import NUMBA_AVAILABLE


def env_header() -> dict:
    """Where and how the artifact was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "repro_native": os.environ.get("REPRO_NATIVE", "auto"),
        "numba": NUMBA_AVAILABLE,
    }
