"""``run.py --smoke`` end to end: all four workloads, byte-checked."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]


def test_smoke_runs_every_workload_with_zero_mismatches():
    out = E2E / "out" / "test-smoke.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--smoke", "--selfcheck", "--seed", "1",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == {
        "narrow_unique", "narrow_repeat", "wide_unique", "train_mixed"
    }
    for workload in result["workloads"].values():
        for check in workload["check"]:
            assert check["checked"] > 0 and check["mismatches"] == 0
            assert check["selfcheck"]["flagged"]
    assert result["env"]["serve"]["engine"]
    assert elapsed < 60, f"smoke took {elapsed:.0f}s"


def test_fails_without_the_repository_sources():
    bare = E2E / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(E2E, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "narrow_unique",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
