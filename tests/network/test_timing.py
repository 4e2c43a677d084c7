"""Tests for static timing analysis (interval abstraction)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.synthesis import synthesize
from repro.core.table import FIG7_TABLE, NormalizedTable
from repro.core.value import INF
from repro.ir import optimize_program
from repro.ir.sorters import group_sorters
from repro.network.builder import NetworkBuilder
from repro.network.graph import NetworkError
from repro.network.simulator import evaluate_all, evaluate_all_interpreted
from repro.network.sorting import bitonic_sort
from repro.network.timing import (
    TimeInterval,
    analyze,
    default_input_window,
    makespan_bound,
    output_intervals,
)
from repro.testing.generators import random_sorter_network


class TestInterval:
    def test_exactly(self):
        i = TimeInterval.exactly(4)
        assert i.contains(4)
        assert not i.contains(5)
        assert not i.contains(INF)
        assert i.certain

    def test_never(self):
        i = TimeInterval.never()
        assert i.contains(INF)
        assert not i.contains(0)
        assert not i.certain

    def test_window_with_absence(self):
        i = TimeInterval.window(2, 5, may_be_absent=True)
        assert i.contains(3)
        assert i.contains(INF)
        assert not i.certain

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            TimeInterval(5, 2)

    def test_must_allow_something(self):
        with pytest.raises(ValueError):
            TimeInterval(0, 0, may_be_absent=False, may_spike=False)

    def test_str(self):
        assert "∞" in str(TimeInterval.window(0, 3, may_be_absent=True))
        assert "never" in str(TimeInterval.never())


class TestSoundness:
    """The abstraction must contain every concrete behaviour."""

    def _check_sound(self, network, input_windows, concrete_choices):
        intervals = analyze(network, input_windows)
        names = network.input_names
        for vec in concrete_choices:
            concrete = evaluate_all(network, dict(zip(names, vec)))
            for node_id, value in enumerate(concrete):
                assert intervals[node_id].contains(value), (
                    vec,
                    node_id,
                    value,
                    str(intervals[node_id]),
                )

    def test_sound_on_fig7_network(self):
        net = synthesize(FIG7_TABLE)
        window = TimeInterval.window(0, 3, may_be_absent=True)
        choices = list(
            itertools.product([0, 1, 2, 3, INF], repeat=3)
        )
        self._check_sound(net, dict.fromkeys(net.input_names, window), choices)

    @pytest.mark.parametrize("seed", range(3))
    def test_sound_on_random_networks(self, seed):
        rng = random.Random(seed)
        b = NetworkBuilder(f"t{seed}")
        pool = [b.input(f"x{i}") for i in range(3)]
        for _ in range(15):
            op = rng.choice(["inc", "min", "max", "lt"])
            if op == "inc":
                pool.append(b.inc(rng.choice(pool), rng.randint(1, 3)))
            elif op == "lt":
                pool.append(b.lt(rng.choice(pool), rng.choice(pool)))
            else:
                pool.append(getattr(b, op)(rng.choice(pool), rng.choice(pool)))
        b.output("y", pool[-1])
        net = b.build()
        window = TimeInterval.window(0, 2, may_be_absent=True)
        choices = list(itertools.product([0, 1, 2, INF], repeat=3))
        self._check_sound(net, dict.fromkeys(net.input_names, window), choices)

    def test_exact_inputs_give_exact_outputs_on_linear_chain(self):
        b = NetworkBuilder()
        x = b.input("x")
        b.output("y", b.inc(x, 5))
        net = b.build()
        out = output_intervals(net, {"x": TimeInterval.exactly(2)})["y"]
        assert out.lo == out.hi == 7
        assert out.certain


class TestTransferFunctions:
    def test_min_of_certain_tightens_upper(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("m", b.min(x, y))
        out = output_intervals(
            b.build(),
            {
                "x": TimeInterval.window(0, 10),  # certain
                "y": TimeInterval.window(3, 20, may_be_absent=True),
            },
        )["m"]
        assert out.hi == 10  # the certain input bounds the first arrival
        assert out.certain

    def test_max_absent_if_any_absent(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("m", b.max(x, y))
        out = output_intervals(
            b.build(),
            {
                "x": TimeInterval.window(0, 2),
                "y": TimeInterval.window(1, 3, may_be_absent=True),
            },
        )["m"]
        assert out.may_be_absent
        assert (out.lo, out.hi) == (1, 3)

    def test_lt_guaranteed_win(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("z", b.lt(x, y))
        out = output_intervals(
            b.build(),
            {
                "x": TimeInterval.window(0, 2),
                "y": TimeInterval.window(5, 9),
            },
        )["z"]
        assert out.certain
        assert (out.lo, out.hi) == (0, 2)

    def test_lt_guaranteed_loss(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("z", b.lt(x, y))
        out = output_intervals(
            b.build(),
            {
                "x": TimeInterval.window(5, 9),
                "y": TimeInterval.window(0, 2),
            },
        )["z"]
        assert not out.may_spike

    def test_unbound_inputs_rejected(self):
        net = synthesize(FIG7_TABLE)
        with pytest.raises(NetworkError, match="unbound"):
            analyze(net, {})


class TestRankRows:
    """A rank row is the k-th order statistic of its sources' intervals."""

    def _sorter(self, width):
        b = NetworkBuilder(f"bitonic{width}")
        xs = [b.input(f"x{i}") for i in range(width)]
        for k, wire in enumerate(bitonic_sort(b, xs)):
            b.output(f"y{k}", wire)
        grouped = group_sorters(b.build())
        assert len(grouped.rank_ids) == width
        return grouped

    def test_exact_inputs_give_the_sorted_times(self):
        grouped = self._sorter(4)
        windows = {
            name: TimeInterval.exactly(t)
            for name, t in zip(grouped.input_names, (0, 5, 9, 2))
        }
        intervals = output_intervals(grouped, windows)
        assert [(i.lo, i.hi, i.may_be_absent) for i in intervals.values()] == [
            (0, 0, False), (2, 2, False), (5, 5, False), (9, 9, False),
        ]

    def test_absence_ranks_last(self):
        grouped = self._sorter(2)
        windows = {
            "x0": TimeInterval.window(1, 3, may_be_absent=True),
            "x1": TimeInterval.window(2, 4),
        }
        first, second = output_intervals(grouped, windows).values()
        assert (first.lo, first.hi, first.may_be_absent) == (1, 4, False)
        assert (second.lo, second.hi, second.may_be_absent) == (2, 4, True)
        silent = dict(windows, x0=TimeInterval.never())
        first, second = output_intervals(grouped, silent).values()
        assert (first.lo, first.hi, first.certain) == (2, 4, True)
        assert not second.may_spike

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        window=st.integers(min_value=0, max_value=6),
        volley=st.lists(
            st.one_of(st.integers(min_value=0, max_value=6), st.just(INF)),
            min_size=6,
            max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_sound_on_grouped_sorter_networks(self, seed, window, volley):
        """Every node's interpreted fire time lies in its interval, on the
        grouped and the served program of a ``sorters``-family network."""
        net = random_sorter_network(seed=seed, smoke=True)
        names = net.input_names
        inputs = {
            name: t if t is INF or t <= window else window
            for name, t in zip(names, volley)
        }
        windows = default_input_window(net, window)
        grouped = group_sorters(net)
        for program in (grouped, optimize_program(grouped)[0]):
            intervals = analyze(program, windows)
            fired = evaluate_all_interpreted(program, inputs)
            for node_id, value in enumerate(fired):
                assert intervals[node_id].contains(value), (
                    program.nodes[node_id].kind,
                    node_id,
                    value,
                    str(intervals[node_id]),
                )


class TestMakespan:
    def test_bound_dominates_concrete_makespan(self):
        from repro.network.events import simulate

        net = synthesize(FIG7_TABLE)
        bound = makespan_bound(net, default_input_window(net, 3))
        for vec in itertools.product([0, 1, 2, 3, INF], repeat=3):
            result = simulate(net, dict(zip(net.input_names, vec)))
            # A silent run (makespan None) is trivially within the bound.
            assert (result.makespan or 0) <= bound, vec

    def test_bound_scales_with_window(self):
        net = synthesize(FIG7_TABLE)
        small = makespan_bound(net, default_input_window(net, 2))
        large = makespan_bound(net, default_input_window(net, 8))
        assert large > small

    def test_silent_network_bound(self):
        b = NetworkBuilder()
        x = b.input("x")
        b.output("y", b.lt(x, x))
        net = b.build()
        windows = {"x": TimeInterval.window(0, 4)}
        # x itself can spike; the bound covers it.
        assert makespan_bound(net, windows) >= 4
