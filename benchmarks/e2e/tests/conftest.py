"""Put the benchmark's modules and the ``repro`` package on the path."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]

for path in (E2E, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
