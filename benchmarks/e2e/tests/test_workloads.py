"""The volley streams and the workload table."""

import json
from pathlib import Path

import numpy as np
import pytest

from workloads import (
    REPEAT_BASES,
    REPEAT_SHIFTS,
    SILENT,
    WORKLOADS,
    VolleyStream,
    repeat_bases,
    simulate_lru,
    wire_volley,
)

ROOT = Path(__file__).resolve().parents[3]
IDS = [0, 1, 4095, 4096, 9000, 20000]


@pytest.mark.parametrize("kind", ["unique", "repeat"])
def test_streams_are_pure_functions_of_workload_and_seed(kind):
    one, two = VolleyStream(kind, 3, 10), VolleyStream(kind, 3, 10)
    # Read in different orders: a request's volley depends on its id only.
    assert np.array_equal(one.rows(IDS), two.rows(IDS[::-1])[::-1])
    assert [one.key(i) for i in IDS] == [two.key(i) for i in IDS]
    other = VolleyStream(kind, 4, 10)
    assert not np.array_equal(one.rows(IDS), other.rows(IDS))


def test_unique_stream_shape():
    rows = VolleyStream("unique", 0, 10).rows(range(5000))
    finite = rows[rows != SILENT]
    assert rows.shape == (5000, 10)
    assert finite.min() >= 0 and finite.max() <= 1000
    assert 0.15 < (rows == SILENT).mean() < 0.25
    assert len({row.tobytes() for row in rows}) == 5000


def test_repeat_stream_is_shifted_bases():
    stream = VolleyStream("repeat", 5, 10)
    bases = repeat_bases(5, 10)
    assert bases.shape == (REPEAT_BASES, 10)
    keys = [stream.key(i) for i in range(20000)]
    assert 0 <= min(keys) and max(keys) < REPEAT_BASES * REPEAT_SHIFTS
    assert len({k % REPEAT_SHIFTS for k in keys}) == REPEAT_SHIFTS
    for i in range(0, 20000, 997):
        base, shift = divmod(keys[i], REPEAT_SHIFTS)
        want = np.where(bases[base] == SILENT, SILENT, bases[base] + shift)
        assert np.array_equal(stream.volley(i), want)


def test_repeat_stream_hit_ratio_against_the_default_cache():
    keys = [VolleyStream("repeat", 0, 10).key(i) for i in range(60000)]
    assert 0.70 <= simulate_lru(keys) <= 0.80
    # The shift-normalized key (base alone) would fit the cache whole.
    assert simulate_lru([k // REPEAT_SHIFTS for k in keys]) > 0.95


def test_wire_volley():
    assert wire_volley(np.array([3, SILENT, 0])) == "[3,null,0]"


def test_benchmark_json_matches_the_benchmark():
    from run import END_TO_END_UNITS, PER_LAYER_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # train_mixed runs, but BENCHMARK.json does not judge it.
    assert [w["name"] for w in spec["workloads"]] == [
        w.name for w in WORKLOADS.values() if w.model == "column"
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
