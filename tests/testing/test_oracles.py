"""Tests for the stock engines, run_backends and the comparison semantics."""

import random

import pytest

from repro.core.function import enumerate_domain
from repro.core.properties import sample_vectors
from repro.core.synthesis import max_from_min_lt, synthesize
from repro.core.table import FIG7_TABLE
from repro.core.value import INF
from repro.network.builder import NetworkBuilder
from repro.network.compile_plan import MAX_FINITE
from repro.network.graph import NetworkError
from repro.runtime.engines import (
    ENGINES,
    BackendEngine,
    CompiledBatchEngine,
    EventDrivenEngine,
    GRLCircuitEngine,
    InterpretedEngine,
)
from repro.testing.conformance import find_disagreements, run_conformance
from repro.testing.oracles import run_backends, saturate, saturate_outputs


def diamond():
    b = NetworkBuilder("diamond")
    x, y = b.inputs("x", "y")
    b.output("z", b.lt(b.min(x, y), b.max(x, y)))
    return b.build()


def with_constants():
    b = NetworkBuilder("consts")
    x = b.input("x")
    b.output("never", b.min())
    b.output("zero", b.max())
    b.output("echo", b.min(x, b.inc(x, 2)))
    return b.build()


class TestSaturation:
    def test_finite_small_passes_through(self):
        assert saturate(7) == 7
        assert saturate(MAX_FINITE) == MAX_FINITE

    def test_inf_and_beyond_sentinel_collapse(self):
        assert saturate(INF) is INF
        assert saturate(MAX_FINITE + 1) is INF
        assert saturate(2**80) is INF

    def test_outputs_tuple(self):
        assert saturate_outputs([3, MAX_FINITE + 5, INF]) == (3, INF, INF)


class TestRegistry:
    def test_four_stock_backends(self):
        assert [engine.name for engine in ENGINES] == [
            "interpreted",
            "compiled-batch",
            "event-driven",
            "grl-circuit",
        ]

    def test_default_oracles_fresh_instances(self):
        a, b = ([engine() for engine in ENGINES] for _ in range(2))
        assert [o.name for o in a] == [o.name for o in b]
        assert all(x is not y for x, y in zip(a, b))

    def test_include_grl_toggle(self):
        report = run_conformance(
            0, 1, smoke=True, include_grl=False, with_faults=False
        )
        assert report.ok
        assert "grl-circuit" not in report.skips
        full = run_conformance(0, 1, smoke=True, with_faults=False)
        assert report.comparisons < full.comparisons


class TestStockOracles:
    VOLLEYS = [(2, 7), (4, 4), (INF, 1), (0, INF), (INF, INF)]
    EXPECTED = [(2,), (INF,), (1,), (0,), (INF,)]

    @pytest.mark.parametrize(
        "oracle",
        [
            InterpretedEngine(),
            CompiledBatchEngine(),
            EventDrivenEngine(),
            GRLCircuitEngine(),
        ],
        ids=lambda o: o.name,
    )
    def test_diamond_agreement(self, oracle):
        net = diamond()
        assert oracle.supports_network(net) is None
        outputs = oracle.run(net, self.VOLLEYS)
        assert [saturate_outputs(o) for o in outputs] == self.EXPECTED

    def test_grl_refuses_constants(self):
        reason = GRLCircuitEngine().supports_network(with_constants())
        assert reason is not None and "zero-source" in reason

    def test_grl_budgets_volley_times(self):
        oracle = GRLCircuitEngine(max_time=32)
        assert oracle.supports_volley((31, INF))
        assert not oracle.supports_volley((33, 0))

    def test_grl_budgets_netlist_size(self):
        b = NetworkBuilder("wide-delay")
        x = b.input("x")
        b.output("y", b.inc(x, 10_000))
        reason = GRLCircuitEngine(max_gates=400).supports_network(b.build())
        assert reason is not None and "too large" in reason


class TestRunBackends:
    def test_canonicalized_agreement_rows(self):
        run = run_backends(diamond(), [(2, 7), (INF, INF)])
        assert list(run.results) == [engine.name for engine in ENGINES]
        for rows in run.results.values():
            assert rows == [(2,), (INF,)]

    @pytest.mark.parametrize(
        "build, vectors",
        [
            (lambda: synthesize(FIG7_TABLE), list(enumerate_domain(3, 3))),
            (max_from_min_lt, list(enumerate_domain(2, 4))),
            (
                lambda: synthesize(FIG7_TABLE),
                sample_vectors(3, count=40, max_time=6, rng=random.Random(0)),
            ),
        ],
        ids=["fig7-exhaustive-w3", "lemma2-exhaustive-w4", "fig7-sampled-40-w6"],
    )
    def test_paper_networks_agree_on_every_engine(self, build, vectors):
        run = run_backends(build(), vectors)
        assert find_disagreements(run) == []
        assert list(run.results) == [engine.name for engine in ENGINES]
        assert run.skipped == {}
        assert all(None not in rows for rows in run.results.values())

    def test_partial_backend_leaves_none_rows(self):
        run = run_backends(
            diamond(),
            [(2, 7), (MAX_FINITE, 0)],
            oracles=[InterpretedEngine(), GRLCircuitEngine(max_time=32)],
        )
        assert run.results["grl-circuit"] == [(2,), None]
        assert run.results["interpreted"][1] == (0,)
        assert run.names_for(0) == ["interpreted", "grl-circuit"]
        assert run.names_for(1) == ["interpreted"]

    def test_unsupported_network_lands_in_skipped(self):
        run = run_backends(with_constants(), [(4,)])
        assert "grl-circuit" in run.skipped
        assert "zero-source" in run.skipped["grl-circuit"]
        # The other three all agree on the identity constants.
        for name in ("interpreted", "compiled-batch", "event-driven"):
            assert run.results[name] == [(INF, 0, 4)]

    def test_row_count_mismatch_detected(self):
        class Broken(BackendEngine):
            name = "broken"

            def run(self, network, volleys, params=None):
                return []

        with pytest.raises(RuntimeError, match="returned 0 rows"):
            run_backends(diamond(), [(1, 2)], oracles=[Broken()])

    def test_params_threaded(self):
        b = NetworkBuilder("gated")
        x = b.input("x")
        mu = b.param("mu")
        b.output("y", b.gate(x, mu))
        net = b.build()
        enabled = run_backends(net, [(3,)], params={"mu": INF})
        blocked = run_backends(net, [(3,)], params={"mu": 0})
        for rows in enabled.results.values():
            assert rows == [(3,)]
        for rows in blocked.results.values():
            assert rows == [(INF,)]
        with pytest.raises(NetworkError, match=r"unbound params: \['mu'\]"):
            run_backends(net, [(3,)])
