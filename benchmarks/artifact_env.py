"""What every artifact bench shares: its CLI, its timer, its writer.

The seven benches that write a ``BENCH_*.json`` at the repo root make
the same three decisions, so they live here once:

* :func:`main` — the CLI: exactly ``--smoke`` and ``--json PATH``; the
  exit status is non-zero when the bench's gates fail;
* :func:`best_of` — the timer: the paired, interleaved min estimator
  (round by round every callable runs once, so a load spike hits each
  side, and each side is summarized by its fastest sample, because
  interference from outside the bench only ever adds time);
* :func:`write_artifact` — the writer: every artifact carries the
  :func:`env_header` naming the commit, Python and NumPy versions, CPU
  count and machine, so two artifacts can be compared knowing what
  differed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Callable

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


def best_of(rounds: int, *fns: Callable[[], object]) -> list[float]:
    """Fastest seconds per callable over *rounds* interleaved rounds.

    The order reverses every round (ABC, CBA, ABC, ...).  A callable
    inherits the cache and allocator state its predecessor leaves, and
    in a fixed order the first one would always run after the last: a
    heavy ``C`` then slows every ``A`` sample (30% on a plan timed after
    a spike-traced run of the same plan).
    """
    best = [float("inf")] * len(fns)
    order = list(range(len(fns)))
    for _ in range(rounds):
        for i in order:
            start = time.perf_counter()
            fns[i]()
            best[i] = min(best[i], time.perf_counter() - start)
        order.reverse()
    return best


def write_artifact(path, data: dict) -> Path:
    """Write *data* as indented JSON with the ``env`` header after its name."""
    path = Path(path)
    document = {"benchmark": data["benchmark"], "env": env_header(), **data}
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def main(report, artifact: Path, doc: str, argv=None) -> int:
    """Run *report* from the command line; 1 when its gates fail."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI quick mode: small sizes, few samples, full-mode bounds off",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=artifact,
        help=f"artifact path (default {artifact.name} at repo root)",
    )
    args = parser.parse_args(argv)
    text, ok = report(smoke=args.smoke, artifact_path=args.json)
    print(text)
    return 0 if ok else 1
