"""compare.py labels fabricated result pairs."""

import json
from pathlib import Path

import pytest

import compare

E2E = Path(__file__).resolve().parents[1]
SPEC = {
    "workloads": [{"name": "narrow_unique", "why": "judged"}],
    "end_to_end": [
        {"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.1},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
}
ENV = {"seconds": 10, "smoke": False, "trace": False}


def entry(*samples, unit="ms"):
    ordered = sorted(samples)
    n = len(ordered)
    return {
        "median": ordered[n // 2],
        "q1": ordered[n // 4],
        "q3": ordered[(3 * n) // 4],
        "samples": list(samples),
        "unit": unit,
    }


def result(tput, p50, error_rate=0.0, workload="narrow_unique", **env):
    return {
        "env": ENV | env,
        "workloads": {
            workload: {
                "metrics": {"throughput_rps": tput, "p50_ms": p50},
                "error_rate": error_rate,
            }
        },
    }


def labels(a, b):
    return {row["metric"]: row["label"] for row in compare.compare(a, b, SPEC)}


STEADY = entry(99.0, 100.0, 101.0)


@pytest.mark.parametrize(
    "b_tput, b_p50, want_tput, want_p50",
    [
        (entry(99.0, 100.0, 101.0), entry(99.0, 100.0, 101.0), "unchanged", "unchanged"),
        (entry(104.0, 105.0, 106.0), entry(94.0, 95.0, 96.0), "unchanged", "unchanged"),
        (entry(79.0, 80.0, 81.0), entry(119.0, 120.0, 121.0), "worse", "worse"),
        (entry(119.0, 120.0, 121.0), entry(79.0, 80.0, 81.0), "improved", "improved"),
        # Spread wider than the bound: unresolved, even with a 15 % move ...
        (entry(80.0, 85.0, 120.0), entry(80.0, 115.0, 120.0), "unresolved", "unresolved"),
        # ... unless every candidate sample beats every baseline sample.
        (entry(102.0, 130.0, 160.0), entry(40.0, 70.0, 98.0), "improved", "improved"),
    ],
)
def test_labels(b_tput, b_p50, want_tput, want_p50):
    got = labels(result(STEADY, STEADY), result(b_tput, b_p50))
    assert got["throughput_rps"] == want_tput
    assert got["p50_ms"] == want_p50


def test_metrics_without_a_bound_are_shown_not_judged():
    a = result(STEADY, STEADY)
    a["workloads"]["narrow_unique"]["metrics"]["p99_ms"] = STEADY
    b = result(STEADY, STEADY)
    b["workloads"]["narrow_unique"]["metrics"]["p99_ms"] = entry(199.0, 200.0, 201.0)
    assert labels(a, b)["p99_ms"] == "info"


def test_unlisted_workload_is_shown_not_judged():
    a = result(STEADY, STEADY, workload="train_mixed")
    b = result(entry(49.0, 50.0, 51.0), entry(199.0, 200.0, 201.0), workload="train_mixed")
    got = labels(a, b)
    assert got["throughput_rps"] == got["p50_ms"] == "info"
    # A failed request is judged on every workload.
    b["workloads"]["train_mixed"]["error_rate"] = 1e-6
    assert labels(a, b)["error_rate"] == "worse"


def test_error_rate_is_absolute():
    a = result(STEADY, STEADY, error_rate=0.0)
    assert labels(a, result(STEADY, STEADY, error_rate=1e-6))["error_rate"] == "worse"
    assert labels(a, result(STEADY, STEADY, error_rate=0.0))["error_rate"] == "unchanged"


def _write(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data))
    return str(path)


def test_exit_code_flags_a_worse_row(capsys):
    out = E2E / "out" / "test-compare"
    spec = compare.load_spec()
    workload = spec["workloads"][0]["name"]
    metric = spec["end_to_end"][-1]
    steady = entry(9900.0, 10000.0, 10100.0, unit=metric["unit"])
    base = {"env": ENV, "workloads": {workload: {"metrics": {metric["name"]: steady},
                                                 "error_rate": 0.0}}}
    a = _write(out / "a.json", base)
    assert compare.main([a, a]) == 0
    step = 1.0 + 2 * metric["bound"] * (1 if metric["better"] == "lower" else -1)
    worse = json.loads(json.dumps(base))
    worse["workloads"][workload]["metrics"][metric["name"]] = entry(
        *(v * step for v in steady["samples"]), unit=metric["unit"]
    )
    assert compare.main([a, _write(out / "b.json", worse)]) == 1
    assert "worse" in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [("seconds", 5), ("smoke", True), ("trace", True)])
def test_refuses_runs_of_another_kind(field, value, capsys):
    out = E2E / "out" / "test-compare"
    a = _write(out / "a.json", result(STEADY, STEADY))
    b = _write(out / f"b-{field}.json", result(STEADY, STEADY, **{field: value}))
    assert compare.main([a, b]) == 2
    assert field in capsys.readouterr().err
