"""PlanCacheTier: one fingerprint-keyed LRU with byte accounting."""

import numpy as np
import pytest

from repro import runtime
from repro.obs.metrics import METRICS
from repro.runtime.cache import PLAN_CACHE, PlanCacheTier, plan_nbytes


def counters(*names):
    return {name: METRICS.counter(f"plan_cache.{name}") for name in names}


def grown(before):
    return {name: METRICS.counter(f"plan_cache.{name}") - v for name, v in before.items()}


class TestLookup:
    def test_hit_and_miss_counters(self):
        tier = PlanCacheTier()
        before = counters("miss", "hit.structural")
        assert tier.get("fp0") is None
        plan = object()
        assert tier.put("fp0", plan, nbytes=10) is plan
        assert tier.get("fp0") is plan
        assert grown(before) == {"miss": 1, "hit.structural": 1}


class TestLimit:
    def test_lru_eviction(self):
        tier = PlanCacheTier(limit=3)
        before = counters("evict")
        for i in range(3):
            tier.put(f"fp{i}", i, nbytes=1)
        tier.get("fp0")  # refresh fp0; fp1 is now LRU
        tier.put("fp3", 3, nbytes=1)
        assert tier.info()["entries"] == 3
        assert tier.get("fp1") is None  # evicted
        assert tier.get("fp0") == 0  # survived the refresh
        assert grown(before) == {"evict": 1}

    def test_lowered_limit_applies_at_next_put(self):
        tier = PlanCacheTier(limit=4)
        for i in range(4):
            tier.put(f"fp{i}", i, nbytes=1)
        tier.limit = 2
        tier.put("fp4", 4, nbytes=1)
        assert tier.info()["entries"] == 2
        assert tier.get("fp3") == 3 and tier.get("fp4") == 4

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            PlanCacheTier(limit=0)


class TestKnobs:
    def test_clear_fires_no_evict_counters(self):
        tier = PlanCacheTier()
        before = counters("evict", "evict.retired")
        tier.put("a", 1, nbytes=5)
        tier.put("b", 2, nbytes=5)
        assert tier.clear() == 2
        info = tier.info()
        assert info["entries"] == 0 and info["bytes"] == 0
        assert grown(before) == {"evict": 0, "evict.retired": 0}

    def test_evict_fingerprint_counts_retired(self):
        tier = PlanCacheTier()
        before = counters("evict", "evict.retired")
        tier.put("a", 1, nbytes=5)
        tier.put("b", 2, nbytes=7)
        assert tier.evict_fingerprint("a") == 1
        assert tier.evict_fingerprint("a") == 0
        assert tier.info()["bytes"] == 7
        assert grown(before) == {"evict": 0, "evict.retired": 1}


class TestInfoShape:
    def test_info_shape(self):
        tier = PlanCacheTier(limit=9)
        tier.put("fp", "plan", nbytes=12)
        tier.put("fp", "plan", nbytes=20)  # a refresh replaces the bytes
        info = tier.info()
        assert set(info) == {
            "entries",
            "bytes",
            "limit",
            "hits_identity",
            "hits_structural",
            "misses",
            "evictions",
            "retired",
        }
        assert (info["entries"], info["bytes"], info["limit"]) == (1, 20, 9)


class TestPlanNbytes:
    def test_counts_ndarrays_through_containers_and_objects(self):
        class Plan:
            def __init__(self):
                self.kernels = [np.zeros(4, dtype=np.int64)]
                self.meta = {"table": np.zeros((2, 2), dtype=np.int64)}

        size = plan_nbytes(Plan())
        assert size >= 64 + 4 * 8 + 4 * 8

    def test_shared_arrays_counted_once(self):
        arr = np.zeros(100, dtype=np.int64)
        assert plan_nbytes([arr, arr]) == plan_nbytes([arr])

    def test_scalars_cost_only_overhead(self):
        assert plan_nbytes({"a": 1, "b": "text"}) == 64


class TestRuntimeSurface:
    def test_cache_info_is_the_unified_record(self):
        info = runtime.cache_info()
        assert set(info) == {"plan", "result", "native_mode", "numba_available"}
        assert {"entries", "bytes", "limit", "misses"} <= set(info["plan"])
        assert {"hits", "misses", "evictions"} <= set(info["result"])

    def test_clear_caches_empties_both_tiers(self):
        from repro.network.builder import NetworkBuilder
        from repro.network.compile_plan import compile_plan
        from repro.runtime.result_cache import RESULT_CACHE

        b = NetworkBuilder("clear")
        b.output("y", b.inc(b.input("x"), 1))
        compile_plan(b.build())
        RESULT_CACHE.put("fp-clear", "digest", (1, 2))
        runtime.clear_caches()
        assert RESULT_CACHE.get("fp-clear", "digest") is None
        assert runtime.cache_info()["plan"]["entries"] == 0

    def test_pool_and_library_share_one_plan(self):
        from repro.ir import lower, optimize_program
        from repro.network import evaluate_batch
        from repro.serve.demo import demo_column
        from repro.serve.pool import InlineWorkerPool
        from repro.serve.registry import ModelRegistry

        runtime.clear_caches(results=False)
        registry = ModelRegistry()
        entry = registry.register(demo_column(0, smoke=True)[0], name="demo")
        InlineWorkerPool(registry.documents())
        program, _report = optimize_program(lower(entry.network))
        evaluate_batch(program, [(0,) * entry.input_arity])
        assert program.fingerprint() != entry.model_id
        assert runtime.cache_info()["plan"]["entries"] == 1
        assert PLAN_CACHE.evict_fingerprint(program.fingerprint()) == 1
