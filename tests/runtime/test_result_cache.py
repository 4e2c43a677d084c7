"""ResultCache: digests, LRU bounds, metrics, and poisoning."""

import hashlib

import numpy as np
import pytest

from repro.core.value import INF, INF_I64, MAX_FINITE
from repro.obs.metrics import METRICS
from repro.runtime.result_cache import RESULT_CACHE, ResultCache, volley_digest


class TestVolleyDigest:
    def test_deterministic(self):
        assert volley_digest((1, 2, 3)) == volley_digest([1, 2, 3])

    def test_params_key_is_part_of_the_key(self):
        assert volley_digest((1, 2, 3)) != volley_digest((1, 2, 3), '{"w": 1}')

    def test_values_change_digest(self):
        assert volley_digest((1, 2)) != volley_digest((2, 1))


def _numpy_volley_digest(encoded, params_key=""):
    """The digest as NumPy packs a row (frozen)."""
    matrix = np.ascontiguousarray(np.asarray(encoded, dtype=np.int64))
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(matrix.shape).encode("ascii"))
    digest.update(matrix.tobytes())
    digest.update(b"|")
    digest.update(params_key.encode("utf-8"))
    return digest.hexdigest()


class TestDigestUnchanged:
    """Row digests equal the NumPy packing's, bit for bit."""

    ROWS = [
        (),
        (0,),
        (1, 2, 3),
        (INF_I64, MAX_FINITE, 0, 7),
        tuple(range(80)),
    ]

    @pytest.mark.parametrize("row", ROWS)
    @pytest.mark.parametrize("params_key", ["", "{}", '{"mu":null}'])
    def test_tuple_rows(self, row, params_key):
        assert volley_digest(row, params_key) == _numpy_volley_digest(row, params_key)
        assert volley_digest(list(row), params_key) == _numpy_volley_digest(
            row, params_key
        )


class TestLookupAndBounds:
    def test_hit_miss_and_lru_refresh(self):
        cache = ResultCache(max_entries=2, max_bytes=None)
        hits0 = METRICS.counter("result_cache.hit")
        misses0 = METRICS.counter("result_cache.miss")
        assert cache.get("fp", "d0") is None
        cache.put("fp", "d0", (1, 2))
        cache.put("fp", "d1", (3, 4))
        assert cache.get("fp", "d0") == (1, 2)  # refresh: d1 becomes LRU
        cache.put("fp", "d2", (5, 6))
        assert cache.get("fp", "d1") is None  # evicted
        assert cache.get("fp", "d0") == (1, 2)
        assert METRICS.counter("result_cache.hit") - hits0 == 2
        assert METRICS.counter("result_cache.miss") - misses0 == 2

    def test_byte_bound_evicts(self):
        # Each tuple row costs 96 + 16 * len bytes.
        cache = ResultCache(max_entries=None, max_bytes=300)
        evicts0 = METRICS.counter("result_cache.evict")
        cache.put("fp", "d0", (1,))  # 112
        cache.put("fp", "d1", (2,))  # 224
        cache.put("fp", "d2", (3,))  # 336 > 300: d0 leaves
        assert len(cache) == 2
        assert cache.get("fp", "d0") is None
        assert METRICS.counter("result_cache.evict") - evicts0 == 1

    def test_reput_replaces_without_double_counting(self):
        cache = ResultCache(max_entries=None, max_bytes=None)
        cache.put("fp", "d0", (1, 2, 3))
        cache.put("fp", "d0", (1, 2, 3, 4))
        assert len(cache) == 1
        assert cache.info()["bytes"] == 96 + 16 * 4

    def test_configure_returns_previous_and_trims(self):
        cache = ResultCache(max_entries=8, max_bytes=None)
        for i in range(8):
            cache.put("fp", f"d{i}", (i,))
        assert cache.configure(max_entries=2) == (8, None)
        assert len(cache) == 2
        with pytest.raises(ValueError, match=">= 1"):
            cache.configure(max_entries=0)
        with pytest.raises(ValueError, match=">= 1"):
            cache.configure(max_bytes=0)

    def test_clear(self):
        cache = ResultCache()
        cache.put("fp", "d0", (1,))
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.info()["bytes"] == 0


class TestPoison:
    def test_poison_corrupts_most_recent_tuple_row(self):
        cache = ResultCache()
        poisoned0 = METRICS.counter("result_cache.poisoned")
        cache.put("fp", "old", (9, 9))
        cache.put("fp", "new", (5, 7))
        key = cache.poison()
        assert key == ("fp", "new")
        assert cache.get("fp", "new") == (6, 7)  # head bumped by one
        assert cache.get("fp", "old") == (9, 9)  # untouched
        assert METRICS.counter("result_cache.poisoned") - poisoned0 == 1

    def test_poison_collapses_inf_head_to_zero(self):
        cache = ResultCache()
        cache.put("fp", "d", (INF, 3))
        assert cache.poison() == ("fp", "d")
        assert cache.get("fp", "d") == (0, 3)

    def test_poison_empty_cache_returns_none(self):
        cache = ResultCache()
        assert cache.poison() is None

    def test_poison_skips_unpoisonable_rows(self):
        cache = ResultCache()
        cache.put("fp", "tuple", (4,))
        cache.put("fp", "empty", ())
        assert cache.poison() == ("fp", "tuple")


class TestInfoShape:
    def test_info_shape(self):
        cache = ResultCache(max_entries=16, max_bytes=1 << 20)
        cache.put("fp", "d", (1, 2))
        info = cache.info()
        assert set(info) == {
            "entries",
            "bytes",
            "max_entries",
            "max_bytes",
            "hits",
            "misses",
            "evictions",
            "retired",
        }
        assert info["entries"] == 1
        assert info["max_entries"] == 16

    def test_singleton_has_default_bounds(self):
        info = RESULT_CACHE.info()
        assert info["max_entries"] is not None
        assert info["max_bytes"] is not None
