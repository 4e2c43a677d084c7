"""Property suite: the batch executor equals the interpreted reference.

One Hypothesis property per seeded generator family (layered DAG, SRM0
sorting-network neuron, τ-WTA inhibition, micro-weight programmable
synapse), each evaluated over the adversarial volley batch — all-∞,
all-ties, 0/∞ checkerboard, MAX_FINITE-pinned and near-sentinel rows —
through the compiled plan's fused NumPy kernels.  Plus the
fault-injection self-check, whose plan-reorder mutant corrupts the
kernel schedule that executor runs.
"""

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.compile_plan import INF_I64, evaluate_batch
from repro.network.simulator import evaluate_all_interpreted
from repro.neuron.response import ResponseFunction
from repro.neuron.srm0 import SRM0Neuron
from repro.neuron.srm0_network import build_srm0_network
from repro.neuron.weights import build_programmable_neuron, weight_settings
from repro.neuron.wta import build_wta_network
from repro.testing.generators import (
    adversarial_volleys,
    random_layered_network,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def interpreted(network, volleys, params=None):
    """Reference outputs, sentinel-saturated like the batch engine's."""
    rows = []
    for volley in volleys:
        values = evaluate_all_interpreted(
            network, dict(zip(network.input_names, volley)), params=params
        )
        rows.append(
            [min(INF_I64, values[i]) for i in network.outputs.values()]
        )
    return np.asarray(rows, dtype=np.int64)


def assert_native_matches(network, volleys, params=None):
    """The batch executor must equal the interpreted reference exactly."""
    expected = interpreted(network, volleys, params=params)
    got = evaluate_batch(network, list(volleys), params=params)
    np.testing.assert_array_equal(got, expected)


class TestFamilies:
    @SETTINGS
    @given(seed=seeds)
    def test_layered_dag(self, seed):
        rng = random.Random(seed)
        network = random_layered_network(
            seed=seed,
            n_inputs=rng.randint(2, 5),
            n_layers=rng.randint(2, 5),
            width=rng.randint(2, 6),
            n_outputs=rng.randint(1, 2),
        )
        volleys = adversarial_volleys(len(network.input_names), rng=rng)
        assert_native_matches(network, volleys)

    @SETTINGS
    @given(seed=seeds)
    def test_srm0(self, seed):
        rng = random.Random(seed)
        arity = rng.randint(2, 3)
        weights = [rng.randint(1, 3) for _ in range(arity)]
        neuron = SRM0Neuron.homogeneous(
            arity,
            weights,
            base_response=ResponseFunction.piecewise_linear(
                amplitude=rng.randint(1, 2),
                rise=rng.randint(1, 2),
                fall=rng.randint(1, 3),
            ),
            threshold=rng.randint(1, max(1, sum(weights))),
        )
        network = build_srm0_network(neuron)
        volleys = adversarial_volleys(len(network.input_names), rng=rng)
        assert_native_matches(network, volleys)

    @SETTINGS
    @given(seed=seeds)
    def test_wta(self, seed):
        rng = random.Random(seed)
        network = build_wta_network(
            rng.randint(3, 6), window=rng.randint(1, 2)
        )
        volleys = adversarial_volleys(len(network.input_names), rng=rng)
        assert_native_matches(network, volleys)

    @SETTINGS
    @given(seed=seeds)
    def test_microweight(self, seed):
        rng = random.Random(seed)
        max_weight = rng.randint(1, 2)
        network, synapses = build_programmable_neuron(
            2,
            base_response=ResponseFunction.piecewise_linear(
                amplitude=1, rise=1, fall=rng.randint(1, 2)
            ),
            max_weight=max_weight,
            threshold=rng.randint(1, 2),
        )
        params = weight_settings(
            synapses, [rng.randint(0, max_weight) for _ in range(2)]
        )
        volleys = adversarial_volleys(len(network.input_names), rng=rng)
        assert_native_matches(network, volleys, params=params)


class TestFaultSelfCheckWithNativeOracle:
    def test_all_five_classes_detected(self):
        from repro.testing.conformance import run_fault_selfcheck
        from repro.testing.faults import fault_classes

        report = run_fault_selfcheck(
            0, classes=fault_classes(), smoke=True, shrink=False
        )
        assert report.ok
        assert len(report.detections) == 5
        assert all(d.detected for d in report.detections)

    def test_native_reorder_oracle_diverges(self):
        from repro.testing.faults import PlanReorderOracle
        from repro.runtime.engines import CompiledBatchEngine

        network = random_layered_network(seed=11, n_layers=3, width=4)
        assert PlanReorderOracle().supports_network(network) is None
        rng = random.Random(11)
        volleys = adversarial_volleys(len(network.input_names), rng=rng)
        healthy = CompiledBatchEngine().run(network, list(volleys))
        corrupt = PlanReorderOracle().run(network, list(volleys))
        assert healthy != corrupt
