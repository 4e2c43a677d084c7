"""End-to-end integration journeys across the whole library.

Each test walks a realistic multi-stage pipeline and checks exact
semantic agreement at *every* stage — the repository's strongest
regression net, since a bug anywhere in the stack surfaces as a stage
disagreement here.
"""

import random

import pytest

from repro.core.function import enumerate_domain
from repro.core.minimize import minimize
from repro.core.properties import sample_vectors
from repro.core.synthesis import synthesize
from repro.core.table import NormalizedTable
from repro.core.value import INF, Infinity
from repro.ir import optimize_program
from repro.network.events import EventSimulator
from repro.network.generate import input_batch, random_network
from repro.network.serialize import dumps, loads
from repro.network.simulator import evaluate
from repro.network.timing import analyze, default_input_window
from repro.racelogic.asynchronous import compile_async, run_async
from repro.racelogic.compile import GRLExecutor, compile_network
from repro.racelogic.digital import run_circuit
from repro.racelogic.export import circuit_dumps, circuit_loads, to_verilog
from repro.testing.conformance import diff_backends


@pytest.mark.parametrize("seed", range(4))
class TestTableToSiliconPipeline:
    """table → minimize → synthesize → optimize → serialize → compile."""

    def _table(self, seed):
        return NormalizedTable.random(
            3, window=3, n_rows=8, rng=random.Random(seed)
        )

    def test_every_stage_preserves_semantics(self, seed):
        table = self._table(seed)
        reference = table.as_causal_function()
        window = table.max_entry() + 1
        domain = list(enumerate_domain(3, window))

        minimal = minimize(table)
        synthesized = synthesize(minimal)
        optimized = optimize_program(synthesized)[0]
        reloaded = loads(dumps(optimized))

        stages = {
            "minimized-table": minimal.as_causal_function(),
            "synthesized": synthesized.as_function(),
            "optimized": optimized.as_function(),
            "reloaded": reloaded.as_function(),
        }
        for stage_name, func in stages.items():
            for vec in domain:
                assert func(*vec) == reference(*vec), (seed, stage_name, vec)

    def test_hardware_stages_agree(self, seed):
        table = self._table(seed)
        net = optimize_program(synthesize(minimize(table)))[0]
        clocked = GRLExecutor(net)
        asynchronous = compile_async(net)
        sim = EventSimulator(net)
        rng = random.Random(seed + 100)
        for _ in range(30):
            vec = tuple(
                INF if rng.random() < 0.25 else rng.randint(0, 5)
                for _ in range(3)
            )
            bound = dict(zip(net.input_names, vec))
            want = evaluate(net, bound)
            assert sim.run(bound).outputs == want, (seed, vec, "events")
            assert clocked.outputs(bound) == want, (seed, vec, "clocked")
            assert run_async(asynchronous, bound).outputs == want, (
                seed,
                vec,
                "async",
            )

    def test_netlist_roundtrip_then_simulate(self, seed):
        table = self._table(seed)
        net = synthesize(table)
        circuit = compile_network(net)
        reloaded = circuit_loads(circuit_dumps(circuit))
        bound = dict(zip(net.input_names, (0, 2, 1)))
        assert (
            run_circuit(reloaded, bound).outputs
            == run_circuit(circuit, bound).outputs
            == evaluate(net, bound)
        )

    def test_verilog_exports_for_every_table(self, seed):
        table = self._table(seed)
        circuit = compile_network(synthesize(table))
        text = to_verilog(circuit)
        assert text.count("endmodule") >= 1
        assert "assign y =" in text or "assign out_y =" in text


class TestTimingCoversExecution:
    """Static analysis bounds must contain every concrete execution."""

    @pytest.mark.parametrize("seed", range(3))
    def test_intervals_contain_all_runs(self, seed):
        net = random_network(n_inputs=3, n_blocks=20, seed=seed)
        windows = default_input_window(net, 4)
        intervals = analyze(net, windows)
        for bound in input_batch(net, 40, max_time=4, seed=seed + 1):
            from repro.network.simulator import evaluate_all

            concrete = evaluate_all(net, bound)
            for node_id, value in enumerate(concrete):
                assert intervals[node_id].contains(value), (
                    seed,
                    bound,
                    node_id,
                )


class TestOptimizedNetworksStayEquivalentEverywhere:
    @pytest.mark.parametrize("seed", range(3))
    def test_full_equivalence_harness_after_optimization(self, seed):
        net = random_network(n_inputs=3, n_blocks=25, seed=seed + 40)
        optimized = optimize_program(net)[0]
        vectors = sample_vectors(3, count=40, max_time=3, rng=random.Random(0))
        run, disagreements = diff_backends(optimized, vectors)
        assert not disagreements, disagreements
        assert run.skipped == {}


class TestNeuronPipeline:
    """behavioral neuron → Fig. 12 net → optimize → GRL → Verilog."""

    def test_neuron_to_silicon(self):
        from repro.neuron.response import ResponseFunction
        from repro.neuron.srm0 import SRM0Neuron
        from repro.neuron.srm0_network import build_srm0_network

        base = ResponseFunction.biexponential(amplitude=3, t_max=8)
        neuron = SRM0Neuron.homogeneous(
            3, [2, 3, 1], base_response=base, threshold=6
        )
        raw = build_srm0_network(neuron)
        net = optimize_program(raw)[0]
        assert net.size <= raw.size
        executor = GRLExecutor(net)
        rng = random.Random(0)
        for _ in range(25):
            vec = tuple(
                INF if rng.random() < 0.3 else rng.randint(0, 6)
                for _ in range(3)
            )
            want = neuron.fire_time(vec)
            got = executor.outputs(dict(zip(net.input_names, vec)))["y"]
            assert want == got, vec
        text = to_verilog(executor.circuit)
        assert "module" in text

    def test_trained_classifier_compiles(self):
        """Train a column with STDP, then run one neuron in silicon."""
        import numpy as np

        from repro.apps.datasets import embedded_patterns
        from repro.learning.stdp import STDPRule, STDPTrainer
        from repro.neuron.column import Column
        from repro.neuron.response import ResponseFunction
        from repro.neuron.srm0_network import build_srm0_network

        base = ResponseFunction.piecewise_linear(amplitude=2, rise=1, fall=4)
        _, data = embedded_patterns(
            n_lines=8, n_patterns=2, presentations=20, active_lines=4, seed=3
        )
        column = Column(
            np.full((2, 8), 2), threshold=5, base_response=base
        )
        trainer = STDPTrainer(column, STDPRule(), rng=random.Random(3))
        trainer.train([item.volley for item in data], epochs=2)

        net = build_srm0_network(column.neurons[0])
        executor = GRLExecutor(net)
        for item in data[:8]:
            vec = tuple(item.volley)
            want = column.neurons[0].fire_time(vec)
            got = executor.outputs(dict(zip(net.input_names, vec)))["y"]
            assert want == got
