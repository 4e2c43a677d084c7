"""The engine contract and the shared optimized-program backend run."""

import pytest

from repro.ir import lower, optimize_program
from repro.network import NetworkBuilder
from repro.obs import project_events, to_jsonl
from repro.runtime.engines import (
    ENGINES,
    BackendEngine,
    CompiledBatchEngine,
    EventDrivenEngine,
    GRLCircuitEngine,
    InterpretedEngine,
)
from repro.testing import generate_case, run_backends
from repro.testing.conformance import find_disagreements


class TestEngineProtocol:
    def test_all_stock_oracles_satisfy_engine(self):
        for engine in ENGINES:
            assert issubclass(engine, BackendEngine)
            assert engine.run is not BackendEngine.run

    def test_oracles_accept_lowered_programs(self):
        case = generate_case(3, smoke=True)
        program = lower(case.network)
        params = case.params or None
        volleys = list(case.volleys[:2])
        for oracle in (InterpretedEngine(), CompiledBatchEngine(), EventDrivenEngine()):
            via_network = oracle.run(case.network, volleys, params=params)
            via_program = oracle.run(program, volleys, params=params)
            assert via_network == via_program

    def test_grl_skip_reason_comes_from_ir_const_ids(self):
        b = NetworkBuilder("consts")
        x = b.input("x")
        b.output("y", b.max(x, b.min()))
        reason = GRLCircuitEngine().supports_network(b.build())
        assert reason is not None and "zero-source" in reason


class TestOptimizedRun:
    @pytest.mark.parametrize("seed", range(8))
    def test_backends_agree_with_and_without_optimization(self, seed):
        case = generate_case(seed, smoke=True)
        params = case.params or None
        plain = run_backends(case.network, case.volleys, params=params)
        tuned = run_backends(
            case.network, case.volleys, params=params, optimize=True
        )
        assert not find_disagreements(plain)
        assert not find_disagreements(tuned)
        assert tuned.program is not None and plain.program is None
        # Optimization must not change any backend's canonical outputs.
        for name, rows in plain.results.items():
            if name in tuned.results:
                for before, after in zip(rows, tuned.results[name]):
                    if before is not None and after is not None:
                        assert before == after

    def test_shared_program_is_pass_fixpoint(self):
        case = generate_case(1, smoke=True)
        run = run_backends(
            case.network, case.volleys[:1],
            params=case.params or None, optimize=True,
        )
        again, report = optimize_program(run.program)
        assert report.removed == 0


class TestOptimizedTraces:
    def _traceable(self, program):
        return [
            oracle for oracle in (engine() for engine in ENGINES)
            if oracle.supports_network(program) is None
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_traces_byte_identical_on_optimized_program(self, seed):
        case = generate_case(seed, smoke=True)
        program, _ = optimize_program(case.network)
        params = case.params or None
        volley = case.volleys[0]
        documents = {}
        for oracle in self._traceable(program):
            trace = oracle.trace(program, volley, params=params)
            if trace is not None:
                documents[oracle.name] = to_jsonl(trace, program)
        assert len(documents) >= 2
        assert len(set(documents.values())) == 1

    def test_projection_recovers_original_fire_times(self):
        from repro.network import evaluate_all_interpreted

        case = generate_case(2, smoke=True)
        program, _ = optimize_program(case.network)
        params = case.params or None
        volley = case.volleys[0]
        inputs = dict(zip(case.network.input_names, volley))
        trace = InterpretedEngine().trace(program, volley, params=params)
        projected = project_events(trace, program.provenance)
        original = evaluate_all_interpreted(case.network, inputs, params=params)
        for event in projected:
            assert original[event.node_id] == event.time
