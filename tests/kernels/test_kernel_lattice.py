"""Lattice identities and ∞-sentinel saturation inside compositions.

Regression pins for the two classic cross-backend hazards, now embedded
*inside* composed kernel subprograms and pushed through the optimizer
(one simplifying sweep, then dce):

* zero-source ``min`` is the constant ``∞`` and zero-source ``max`` the
  constant ``0`` (the lattice identities, §III.D) — composing them into
  kernel inputs must fold correctly and agree across backends;
* ``inc`` saturates at the int64 sentinel: a composed delay chain fed
  the last finite time must yield ``∞`` on every backend, before and
  after ``inc`` fusion collapses the chain.
"""

import random

from repro.core.value import INF
from repro.ir.passes import optimize_program
from repro.kernels import (
    Kernel,
    barrier,
    compose,
    interval_min,
    interval_shift,
)
from repro.network.builder import NetworkBuilder
from repro.network.compile_plan import MAX_FINITE
from repro.testing.conformance import diff_backends
from repro.testing.generators import adversarial_volleys


def constants_kernel():
    """A kernel whose outputs are the zero-source lattice identities."""
    builder = NetworkBuilder("lattice-consts")
    builder.input("x")  # keeps the network non-degenerate
    builder.output("top", builder.min())   # zero-source min == ∞
    builder.output("bottom", builder.max())  # zero-source max == 0
    return Kernel.from_builder(builder, name="consts")


class TestLatticeIdentitiesInsideCompositions:
    def test_zero_source_constants_evaluate_as_identities(self):
        kernel = constants_kernel()
        for x in (0, 5, INF):
            out = kernel.evaluate((x,))
            assert out == {"top": INF, "bottom": 0}

    def test_composed_constants_feed_downstream_kernels(self):
        """min(a, ⊥)=⊥ and min(a, ⊤)=a, inside a composed subprogram."""
        consts = constants_kernel()
        stage = interval_min().renamed(
            inputs={"b_lo": "bottom", "b_hi": "top"}, name="meet"
        )
        composed = compose(consts, stage)
        assert composed.inputs == ["x", "a_lo", "a_hi"]
        for a_lo, a_hi in ((0, 4), (2, INF), (INF, INF)):
            out = composed.evaluate((0, a_lo, a_hi))
            assert out["lo_out"] == 0       # min(a_lo, 0) == 0
            assert out["hi_out"] == a_hi    # min(a_hi, ∞) == a_hi

    def test_pipeline_folds_composed_constants(self):
        consts = constants_kernel()
        stage = interval_min().renamed(
            inputs={"b_lo": "bottom", "b_hi": "top"}, name="meet"
        )
        composed = compose(consts, stage)
        optimized, report = optimize_program(composed.program)
        # Known-value folding + dce collapse the meet with ⊥ to the
        # constant and the meet with ⊤ to a plain wire; no min survives.
        assert all(node.kind != "min" for node in optimized.nodes)
        # semantics preserved: optimized and raw agree across backends
        volleys = adversarial_volleys(3, rng=random.Random(11), n_random=4)
        _, raw = diff_backends(composed.network(), volleys)
        _, opt = diff_backends(composed.network(), volleys, optimize=True)
        assert raw == [] and opt == []

    def test_constants_agree_across_backends_after_optimization(self):
        composed = compose(
            constants_kernel(),
            barrier(n=2, slack=1).renamed(
                inputs={"x0": "bottom", "x1": "y"}, name="sync"
            ),
        )
        volleys = adversarial_volleys(2, rng=random.Random(3), n_random=4)
        _, disagreements = diff_backends(
            composed.network(), volleys, optimize=True
        )
        assert disagreements == []
        # release = max(0, y) + 1 exactly
        for y in (0, 3, INF):
            out = composed.evaluate((0, y))
            assert out["release"] == (INF if y is INF else max(0, y) + 1)


class TestSentinelSaturationInsideCompositions:
    def chain(self):
        """Three composed +2 shifts — six total delay, fused by the sweep."""
        stages = [interval_shift(2)]
        stages.append(
            interval_shift(2).renamed(
                inputs={"lo": "lo_out", "hi": "hi_out"},
                outputs={"lo_out": "lo2", "hi_out": "hi2"},
                name="shift-b",
            )
        )
        stages.append(
            interval_shift(2).renamed(
                inputs={"lo": "lo2", "hi": "hi2"},
                outputs={"lo_out": "lo3", "hi_out": "hi3"},
                name="shift-c",
            )
        )
        return compose(*stages, name="shift-chain")

    def test_near_sentinel_inputs_saturate_to_infinity(self):
        composed = self.chain()
        out = composed.evaluate((MAX_FINITE, MAX_FINITE - 7))
        assert out["lo3"] is INF          # MAX_FINITE + 6 saturates
        assert out["hi3"] == MAX_FINITE - 1  # still finite, exact
        out = composed.evaluate((MAX_FINITE - 6, MAX_FINITE - 5))
        assert out["lo3"] == MAX_FINITE   # lands exactly on the last finite
        assert out["hi3"] is INF          # one past it saturates

    def test_fused_chain_still_saturates(self):
        composed = self.chain()
        optimized, _ = optimize_program(composed.program)
        # inc fusion collapses each 3-deep delay chain onto the input with
        # the summed amount (intermediates stay live — compose exports
        # every stage's outputs — but no inc feeds another inc anymore).
        assert len(composed.network().schedule) - 1 == 3
        assert len(optimized.schedule) - 1 == 1
        inc_amounts = sorted(
            node.amount for node in optimized.nodes if node.kind == "inc"
        )
        assert inc_amounts == [2, 2, 4, 4, 6, 6]
        volleys = [
            (MAX_FINITE, MAX_FINITE),
            (MAX_FINITE - 6, MAX_FINITE - 5),
            (MAX_FINITE - 7, 0),
            (INF, MAX_FINITE),
        ]
        _, disagreements = diff_backends(
            composed.network(), volleys, optimize=True
        )
        assert disagreements == []

    def test_adversarial_sweep_on_the_chain(self):
        composed = self.chain()
        volleys = adversarial_volleys(2, rng=random.Random(17), n_random=6)
        for optimize in (False, True):
            _, disagreements = diff_backends(
                composed.network(), volleys, optimize=optimize
            )
            assert disagreements == []
