"""Tests for the differential conformance engine.

Includes the property-based satellite: on seeded random DAGs the
event-driven simulator and the compiled batch engine denote the same
bounded s-t function (up to sentinel saturation).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.value import INF, Infinity
from repro.testing.conformance import (
    ConformanceReport,
    diff_backends,
    find_disagreements,
    run_case,
    run_conformance,
    run_fault_selfcheck,
)
from repro.testing.faults import FAULT_CLASSES, FaultedOracle
from repro.testing.generators import (
    adversarial_volleys,
    generate_case,
    random_layered_network,
)
from repro.runtime.engines import (
    CompiledBatchEngine,
    EventDrivenEngine,
    InterpretedEngine,
)
from repro.testing.oracles import BackendRun, saturate_outputs

times = st.one_of(st.integers(min_value=0, max_value=30), st.just(INF))


# ---------------------------------------------------------------------------
# Property: event-driven simulator == compiled batch engine on random DAGs
# ---------------------------------------------------------------------------

class TestEventDrivenMatchesCompiled:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        volley_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_adversarial_volleys_agree(self, seed, volley_seed):
        network = random_layered_network(
            seed=seed, n_inputs=4, n_layers=3, width=4, n_outputs=2
        )
        volleys = adversarial_volleys(
            4, rng=random.Random(volley_seed), n_random=4
        )
        event = EventDrivenEngine().run(network, volleys)
        batch = CompiledBatchEngine().run(network, volleys)
        assert [saturate_outputs(o) for o in event] == [
            saturate_outputs(o) for o in batch
        ]

    @given(data=st.data(), seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_hand_drawn_volleys_agree(self, data, seed):
        network = random_layered_network(
            seed=seed, n_inputs=3, n_layers=4, width=5, n_outputs=2
        )
        volley = tuple(data.draw(times) for _ in range(3))
        event = EventDrivenEngine().run(network, [volley])[0]
        batch = CompiledBatchEngine().run(network, [volley])[0]
        assert saturate_outputs(event) == saturate_outputs(batch)


# ---------------------------------------------------------------------------
# Diffing machinery
# ---------------------------------------------------------------------------

class TestFindDisagreements:
    def test_unanimous_run_is_clean(self):
        run = BackendRun(
            volleys=[(1,), (2,)],
            results={"a": [(1,), (2,)], "b": [(1,), (2,)]},
        )
        assert find_disagreements(run) == []

    def test_split_vote_reported_with_outputs(self):
        run = BackendRun(
            volleys=[(1,), (2,)],
            results={"a": [(1,), (2,)], "b": [(1,), (9,)]},
        )
        found = find_disagreements(run)
        assert len(found) == 1
        index, outputs = found[0]
        assert index == 1
        assert outputs == {"a": (2,), "b": (9,)}

    def test_single_supporting_backend_cannot_disagree(self):
        run = BackendRun(
            volleys=[(1,)],
            results={"a": [(1,)]},
        )
        assert find_disagreements(run) == []

    def test_diff_backends_flags_injected_fault(self):
        case = generate_case(0, smoke=True)
        faulted = FaultedOracle(
            CompiledBatchEngine(),
            label="all-zero",
            volley_transform=lambda v: (0,) * len(v),
        )
        _, found = diff_backends(
            case.network,
            case.volleys,
            params=case.params or None,
            oracles=[InterpretedEngine(), faulted],
        )
        assert found, "an all-zero volley fault must be observable"


# ---------------------------------------------------------------------------
# Case runs and shrinking
# ---------------------------------------------------------------------------

class TestRunCase:
    def test_clean_case_has_no_mismatches(self):
        case = generate_case(1, smoke=True)
        run, mismatches = run_case(case)
        assert mismatches == []
        assert len(run.volleys) == len(case.volleys)

    def test_forced_mismatch_is_shrunk_and_emitted(self):
        case = generate_case(2, smoke=True)
        faulted = FaultedOracle(
            CompiledBatchEngine(),
            label="drop-all",
            volley_transform=lambda v: (INF,) * len(v),
        )
        run, mismatches = run_case(
            case, oracles=[InterpretedEngine(), faulted]
        )
        assert mismatches
        first = mismatches[0]
        assert first.minimized_volley is not None
        assert first.regression_test is not None
        # The witness never grows during shrinking.
        finite = sum(
            1 for v in first.minimized_volley if not isinstance(v, Infinity)
        )
        assert finite <= sum(
            1 for v in first.volley if not isinstance(v, Infinity)
        )
        # The emitted module is executable Python with one test function.
        namespace = {}
        exec(compile(first.regression_test, "<emitted>", "exec"), namespace)
        test_fns = [k for k in namespace if k.startswith("test_")]
        assert len(test_fns) == 1


# ---------------------------------------------------------------------------
# The sweep and the self-check
# ---------------------------------------------------------------------------

class TestRunConformance:
    def test_smoke_sweep_is_clean(self):
        report = run_conformance(seed=0, count=3, smoke=True, with_faults=False)
        assert isinstance(report, ConformanceReport)
        assert report.ok
        assert report.cases == 3
        assert report.mismatches == []
        assert report.comparisons > 0
        assert "verdict: OK" in report.summary()

    def test_skips_carry_reasons(self):
        # Enough smoke cases to hit a GRL-unsupported network.
        report = run_conformance(
            seed=0, count=12, smoke=True, with_faults=False, shrink=False
        )
        if report.skips:
            for name in report.skips:
                assert report.skip_reasons[name]

    def test_fault_selfcheck_kills_every_class(self):
        report = run_fault_selfcheck(seed=0, smoke=True)
        assert report.ok, str(report)
        assert {d.fault for d in report.detections} == {
            f.name for f in FAULT_CLASSES
        }
        for detection in report.detections:
            assert detection.witness is not None
            assert detection.regression_test is not None

    def test_fault_selfcheck_deterministic(self):
        first = run_fault_selfcheck(seed=3, smoke=True, shrink=False)
        second = run_fault_selfcheck(seed=3, smoke=True, shrink=False)
        assert [
            (d.fault, d.case_name, d.oracle_name) for d in first.detections
        ] == [(d.fault, d.case_name, d.oracle_name) for d in second.detections]

    def test_fault_reproducers_execute_and_pass(self):
        report = run_fault_selfcheck(seed=0, smoke=True)
        for detection in report.detections:
            namespace = {}
            exec(
                compile(detection.regression_test, "<emitted>", "exec"),
                namespace,
            )
            for name, fn in namespace.items():
                if name.startswith("test_"):
                    fn()  # must pass against the healthy tree


@pytest.mark.conformance
class TestDeepSweep:
    """The acceptance gate: the full 50-case sweep with faults and GRL."""

    def test_acceptance_sweep(self):
        report = run_conformance(seed=0, count=50)
        assert report.ok, report.summary()
        assert report.cases == 50
        assert report.mismatches == []
        assert report.fault_report is not None and report.fault_report.ok
