"""The bounded compiled-plan cache: limits, evictions, IR-keyed sharing."""

import pytest

from repro import runtime
from repro.ir import lower, optimize_program
from repro.network import NetworkBuilder, compile_plan
from repro.runtime.cache import PLAN_CACHE, PlanCacheTier


def plan_cache_info():
    return runtime.cache_info()["plan"]


def chain(tag: str, length: int):
    b = NetworkBuilder(f"chain-{tag}")
    x = b.input("x")
    for _ in range(length):
        x = b.inc(x, 1)
    b.output("y", x)
    return b.build()


@pytest.fixture
def bounded_cache(monkeypatch):
    monkeypatch.setattr(PLAN_CACHE, "limit", 2)
    runtime.clear_caches(results=False)
    yield
    runtime.clear_caches(results=False)


class TestCacheLimit:
    def test_limit_round_trips(self, monkeypatch):
        monkeypatch.setattr(PLAN_CACHE, "limit", 7)
        assert plan_cache_info()["limit"] == 7

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCacheTier(limit=0)

    def test_overflow_evicts_lru(self, bounded_cache):
        before = plan_cache_info()["evictions"]
        nets = [chain(str(i), i + 1) for i in range(3)]
        for net in nets:
            compile_plan(net)
        info = plan_cache_info()
        assert info["entries"] == 2
        assert info["evictions"] == before + 1

    def test_evicted_plan_recompiles_as_miss(self, bounded_cache):
        first = chain("a", 1)
        compile_plan(first)
        compile_plan(chain("b", 2))
        compile_plan(chain("c", 3))  # evicts first's entry
        misses = plan_cache_info()["misses"]
        # Fresh object with first's structure: structural entry is gone.
        compile_plan(chain("a", 1))
        assert plan_cache_info()["misses"] == misses + 1


class TestIRKeyedSharing:
    def test_network_and_lowering_share_one_plan(self, bounded_cache):
        net = chain("shared", 2)
        plan = compile_plan(net)
        hits = plan_cache_info()["hits_structural"]
        assert compile_plan(lower(net)) is plan
        assert plan_cache_info()["hits_structural"] == hits + 1

    def test_optimized_program_keys_its_own_entry(self, bounded_cache):
        b = NetworkBuilder("twins")
        x = b.input("x")
        b.output("a", b.inc(x, 2))
        b.output("b", b.inc(x, 2))
        net = b.build()
        program, _ = optimize_program(net)
        assert program.fingerprint() != net.fingerprint()
        compile_plan(net)
        misses = plan_cache_info()["misses"]
        compile_plan(program)
        assert plan_cache_info()["misses"] == misses + 1

    def test_optimization_runs_once_and_plan_is_shared(self, bounded_cache):
        net = chain("once", 3)
        program, _ = optimize_program(net)
        plan = compile_plan(program)
        hits = plan_cache_info()["hits_identity"]
        assert compile_plan(program) is plan
        assert plan_cache_info()["hits_identity"] == hits + 1
