"""Compare two result files of ``benchmarks/e2e/run.py``.

Usage::

    python3 benchmarks/e2e/compare.py A.json B.json

A is the baseline (the parent), B the candidate.  Both must come from
runs of the same kind: the same ``--seconds``, ``--smoke`` and
``--trace``; otherwise nothing is compared and the exit code is 2.

One row per (workload, metric) present in both files, with each side's
median and quartiles.  The end-to-end metrics of the workloads that
``BENCHMARK.json`` lists are labelled by its bounds:

* ``unresolved`` — either side's spread, (q3 - q1) / median, is wider
  than the bound, and not every B sample reads better than every A one;
* ``worse`` / ``improved`` — B's median is worse / better than A's by
  more than the bound (relative to A's median);
* ``unchanged`` — otherwise.

Every other row — served throughput and latency, which have no bound,
and any metric of a workload ``BENCHMARK.json`` does not list
(``train_mixed``) — is shown as ``info`` and judged by nobody.
``error_rate`` (failed / attempted) is judged on every workload, and
absolutely: any rise is ``worse``, any fall ``improved``.  Exits 1 if any
row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Environment fields two compared runs must share.
SAME_RUN_KIND = ("seconds", "smoke", "trace")


def load_spec(path: Path = ROOT / "BENCHMARK.json") -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def label(a: dict, b: dict, *, bound: float, better: str) -> str:
    """The verdict on one metric (entries carry median, q1, q3, samples)."""
    sign = 1.0 if better == "higher" else -1.0
    spread = max(
        (side["q3"] - side["q1"]) / abs(side["median"]) if side["median"] else 0.0
        for side in (a, b)
    )
    if spread > bound:
        if min(sign * v for v in b["samples"]) > max(sign * v for v in a["samples"]):
            return "improved"
        return "unresolved"
    change = sign * (b["median"] - a["median"]) / abs(a["median"])
    if change < -bound:
        return "worse"
    if change > bound:
        return "improved"
    return "unchanged"


def mismatched_kind(a: dict, b: dict) -> list[str]:
    """The run-kind fields on which the two environment headers differ."""
    return [k for k in SAME_RUN_KIND if a["env"].get(k) != b["env"].get(k)]


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    judged = {w["name"] for w in spec["workloads"]}
    rows = []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(name)
            if mb is None or "median" not in ma or "median" not in mb:
                continue
            spec_m = bounds.get(name)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": ma["unit"],
                    "a": ma,
                    "b": mb,
                    "label": (
                        label(ma, mb, bound=spec_m["bound"], better=spec_m["better"])
                        if spec_m is not None and workload in judged else "info"
                    ),
                }
            )
        ea, eb = wa["error_rate"], wb["error_rate"]
        rows.append(
            {
                "workload": workload,
                "metric": "error_rate",
                "unit": "ratio",
                "a": {"median": ea, "q1": ea, "q3": ea},
                "b": {"median": eb, "q1": eb, "q3": eb},
                "label": "worse" if eb > ea else "improved" if eb < ea else "unchanged",
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    def side(entry: dict) -> str:
        return f"{entry['median']:>12.4g} [{entry['q1']:.4g}, {entry['q3']:.4g}]"

    lines = [
        f"{'workload':<14} {'metric':<16} {'unit':<10} "
        f"{'A median [q1, q3]':>32} {'B median [q1, q3]':>32}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<14} {row['metric']:<16} {row['unit']:<10} "
            f"{side(row['a']):>32} {side(row['b']):>32}  {row['label']}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    differ = mismatched_kind(a, b)
    if differ:
        print(
            "the runs differ in "
            + ", ".join(f"{k} ({a['env'].get(k)} vs {b['env'].get(k)})" for k in differ)
            + "; compare runs made with the same options",
            file=sys.stderr,
        )
        return 2
    rows = compare(a, b, load_spec())
    if not rows:
        print("no (workload, metric) pair is present in both files", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(row["label"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
