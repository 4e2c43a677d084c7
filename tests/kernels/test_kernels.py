"""Per-kernel contracts for the s-t kernel stdlib.

Every registry kernel must: build (including all registry variants),
agree byte-for-byte across all four execution backends on the
adversarial volley batch, match its closed-form semantics exhaustively
over a bounded window, and ship an inferred function table per output
port.
"""

import random

import pytest

from repro.core.value import INF
from repro.kernels import (
    KERNELS,
    Kernel,
    KernelError,
    accumulator,
    barrier,
    build_kernel,
    demo_network,
    interval_intersect,
    interval_max,
    interval_min,
    interval_shift,
    interval_union,
    kernel_names,
    latch,
    router,
)
from repro.testing.conformance import diff_backends
from repro.testing.generators import adversarial_volleys


def window_vectors(arity, window):
    """Every vector over {0..window-1, ∞} of the given arity."""
    values = list(range(window)) + [INF]
    vectors = [()]
    for _ in range(arity):
        vectors = [vec + (v,) for vec in vectors for v in values]
    return vectors


def tmin(*xs):
    finite = [x for x in xs if x is not INF]
    return min(finite) if finite else INF


def tmax(*xs):
    if any(x is INF for x in xs):
        return INF
    return max(xs) if xs else 0


def tlt(a, b):
    if a is INF:
        return INF
    return a if (b is INF or a < b) else INF


class TestFourBackendByteIdentity:
    """The acceptance criterion: every shipped kernel, every variant,
    every registered backend."""

    @pytest.mark.parametrize("name", kernel_names())
    def test_default_build_agrees_everywhere(self, name):
        kernel = build_kernel(name)
        volleys = adversarial_volleys(
            kernel.arity, rng=random.Random(1234), n_random=6
        )
        run, disagreements = diff_backends(kernel.network(), volleys)
        assert disagreements == []
        # The batch engine participated, not just skipped.
        assert any(row is not None for row in run.results["compiled-batch"])

    @pytest.mark.parametrize("name", kernel_names())
    def test_every_registry_variant_agrees(self, name):
        for kwargs in KERNELS[name].variants:
            kernel = build_kernel(name, **kwargs)
            volleys = adversarial_volleys(
                kernel.arity, rng=random.Random(99), n_random=3
            )
            _, disagreements = diff_backends(kernel.network(), volleys)
            assert disagreements == []

    @pytest.mark.parametrize("name", kernel_names())
    def test_optimized_program_agrees_everywhere(self, name):
        kernel = build_kernel(name)
        volleys = adversarial_volleys(
            kernel.arity, rng=random.Random(5), n_random=3
        )
        _, disagreements = diff_backends(
            kernel.network(), volleys, optimize=True
        )
        assert disagreements == []


class TestClosedFormSemantics:
    """Exhaustive window checks against the algebra's closed forms."""

    def test_interval_shift(self):
        kernel = interval_shift(2)
        for lo, hi in window_vectors(2, 3):
            out = kernel.evaluate((lo, hi))
            assert out["lo_out"] == (INF if lo is INF else lo + 2)
            assert out["hi_out"] == (INF if hi is INF else hi + 2)

    def test_interval_pointwise_and_sets(self):
        cases = {
            "interval-min": lambda a, b, c, d: (tmin(a, c), tmin(b, d)),
            "interval-max": lambda a, b, c, d: (tmax(a, c), tmax(b, d)),
            "interval-union": lambda a, b, c, d: (tmin(a, c), tmax(b, d)),
        }
        for name, expect in cases.items():
            kernel = build_kernel(name)
            for vec in window_vectors(4, 2):
                out = kernel.evaluate(vec)
                lo, hi = expect(*vec)
                assert (out["lo_out"], out["hi_out"]) == (lo, hi), (name, vec)

    def test_interval_intersect_witness(self):
        kernel = interval_intersect()
        for vec in window_vectors(4, 2):
            out = kernel.evaluate(vec)
            lo = tmax(vec[0], vec[2])
            hi = tmin(vec[1], vec[3])
            assert out["lo_out"] == lo
            assert out["hi_out"] == hi
            assert out["proper"] == tlt(lo, hi)

    def test_latch_races_data_against_close(self):
        kernel = latch(hold=1)
        for data, close in window_vectors(2, 4):
            out = kernel.evaluate((data, close))
            captured = tlt(data, close)
            assert out["q"] == (INF if captured is INF else captured + 1)
            assert out["missed"] == tlt(close, data)

    def test_latch_tie_is_silent_both_ways(self):
        out = latch().evaluate((3, 3))
        assert out == {"q": INF, "missed": INF}

    def test_barrier_is_max_plus_slack(self):
        kernel = barrier(n=3, slack=2)
        for vec in window_vectors(3, 2):
            out = kernel.evaluate(vec)
            release = tmax(*vec)
            assert out["release"] == (
                INF if release is INF else release + 2
            )
            assert out["first"] == tmin(*vec)

    def test_router_strict_one_wta(self):
        kernel = router(3)
        for vec in window_vectors(3, 2):
            out = kernel.evaluate(vec)
            for i in range(3):
                others = tmin(*(vec[j] for j in range(3) if j != i))
                assert out[f"y{i}"] == tlt(vec[i], others), (vec, i)

    def test_router_tie_has_no_winner(self):
        out = router(2).evaluate((1, 1))
        assert out == {"y0": INF, "y1": INF}

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (4, 3), (3, 3)])
    def test_accumulator_is_kth_order_statistic(self, n, k):
        kernel = accumulator(n=n, k=k)
        for vec in window_vectors(n, 2):
            ordered = sorted(vec, key=lambda t: (t is INF, 0 if t is INF else t))
            assert kernel.evaluate(vec)["kth"] == ordered[k - 1], vec

    def test_accumulator_silent_lines_never_count(self):
        kernel = accumulator(n=4, k=3)
        assert kernel.evaluate((0, 1, INF, INF))["kth"] == INF


class TestFunctionTableContract:
    @pytest.mark.parametrize("name", kernel_names())
    def test_contract_has_one_table_per_port(self, name):
        spec = KERNELS[name]
        kernel = spec.build()
        tables = kernel.contract(window=spec.table_window)
        assert sorted(tables) == sorted(kernel.outputs)
        assert all(len(table) > 0 for table in tables.values())

    def test_single_output_autoselects(self):
        table = accumulator(n=2, k=2).function_table(window=2)
        assert table.arity == 2

    def test_multi_output_requires_port(self):
        with pytest.raises(KernelError, match="output ports"):
            latch().function_table(window=2)

    def test_contract_is_deterministic(self):
        a = latch().contract(window=3)
        b = latch().contract(window=3)
        assert a == b


class TestKernelApi:
    def test_registry_entries_build_and_describe(self):
        for name in kernel_names():
            kernel = build_kernel(name)
            text = kernel.describe()
            assert f"kernel {name}" in text
            for port in kernel.inputs + kernel.outputs:
                assert port in text

    def test_unknown_kernel_lists_registry(self):
        with pytest.raises(KernelError, match="interval-shift"):
            build_kernel("bogus")

    def test_factory_argument_validation(self):
        with pytest.raises(KernelError):
            interval_shift(0)
        with pytest.raises(KernelError):
            barrier(n=1)
        with pytest.raises(KernelError):
            router(n=1)
        with pytest.raises(KernelError):
            accumulator(n=3, k=4)
        with pytest.raises(KernelError):
            latch(hold=-1)

    def test_evaluate_checks_arity(self):
        with pytest.raises(KernelError, match="2 input"):
            latch().evaluate((1, 2, 3))

    def test_renamed_rewires_ports_without_touching_structure(self):
        original = latch()
        renamed = original.renamed(
            inputs={"data": "d"}, outputs={"q": "out"}, name="l2"
        )
        assert renamed.inputs == ["d", "close"]
        assert sorted(renamed.outputs) == sorted(["out", "missed"])
        for volley in window_vectors(2, 3):
            assert (
                list(original.evaluate(volley).values())
                == list(renamed.evaluate(volley).values())
            )

    def test_renamed_rejects_unknown_and_colliding_ports(self):
        with pytest.raises(KernelError, match="unknown input"):
            latch().renamed(inputs={"nope": "x"})
        with pytest.raises(KernelError, match="unknown output"):
            latch().renamed(outputs={"nope": "x"})
        with pytest.raises(KernelError, match="collide"):
            latch().renamed(inputs={"data": "close"})
        with pytest.raises(KernelError, match="collide"):
            latch().renamed(outputs={"q": "missed"})

    def test_kernel_requires_outputs(self):
        from repro.network.blocks import Node
        from repro.network.graph import Network

        silent = Network((Node(0, "input", name="x"),), {})
        with pytest.raises(KernelError, match="no output ports"):
            Kernel(silent)

    def test_demo_network_is_pure_in_name(self):
        for name in kernel_names():
            assert (
                demo_network(name).fingerprint()
                == demo_network(name).fingerprint()
            )

    def test_demo_volley_arity_matches_kernel(self):
        for name, spec in KERNELS.items():
            assert len(spec.demo_volley) == spec.build().arity
