"""Regenerate every figure/claim report in one run.

Usage::

    python benchmarks/run_all_reports.py [pattern]

Imports each ``bench_*.py`` module in this directory and prints its
``report()`` — the textual regeneration of the corresponding paper
figure or claim (the source of the numbers recorded in EXPERIMENTS.md).
A report that raises, or an artifact bench whose gates fail, counts as
a failure.  An optional substring *pattern* filters which reports run.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path


def iter_bench_modules(pattern: str = ""):
    directory = Path(__file__).parent
    for path in sorted(directory.glob("bench_*.py")):
        if pattern and pattern not in path.stem:
            continue
        yield path


def load_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    pattern = args[0] if args else ""
    failures = 0
    count = 0
    for path in iter_bench_modules(pattern):
        count += 1
        started = time.time()
        print("=" * 72)
        try:
            module = load_module(path)
            result = module.report()
        except Exception as exc:  # noqa: BLE001 - survey must continue
            failures += 1
            print(f"[FAILED] {path.name}: {exc!r}")
        else:
            # Artifact benches return (text, ok); figure reports, text.
            text, ok = result if isinstance(result, tuple) else (result, True)
            print(text)
            if not ok:
                failures += 1
                print(f"[FAILED] {path.name}: a gate failed")
        print(f"\n({path.name}, {time.time() - started:.1f}s)")
    print("=" * 72)
    print(f"{count} report(s), {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
