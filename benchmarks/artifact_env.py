"""The ``env`` header every ``BENCH_*.json`` artifact carries.

Benchmarks import :func:`env_header` from here so an artifact records
where and how it was measured — commit, Python and NumPy versions, CPU
count and machine — and two artifacts can be compared knowing what
differed.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np


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
    }
