"""Sorter grouping: recognized sorting networks become rank rows.

Covers recognition (every width, both constructions), the near misses
that must stay comparators, containment, idempotence, provenance, the
sweep's opaque handling of rank rows, the compiled sort kernel, rank rows
on every engine and in spike traces, and the surfaces that refuse them.
"""

import gc
import json
import random
import weakref
from functools import lru_cache
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.value import INF
from repro.ir import optimize_program
from repro.ir import sorters
from repro.ir.sorters import group_sorters
from repro.network import NetworkBuilder, evaluate_all_interpreted
from repro.network.blocks import Node
from repro.network.compile_plan import (
    MAX_FINITE,
    _SortKernel,
    compile_plan,
    decode_matrix,
    evaluate_batch,
)
from repro.network.graph import Network, NetworkError, same_structure
from repro.network.serialize import dumps, loads
from repro.network.sorting import bitonic_sort, odd_even_merge_sort
from repro.neuron.response import ResponseFunction
from repro.neuron.srm0 import SRM0Neuron
from repro.neuron.srm0_network import build_srm0_network
from repro.obs.trace import cause_of, to_jsonl
from repro.racelogic.compile import compile_network
from repro.testing import generate_case
from repro.testing.generators import FAMILIES
from repro.runtime.engines import (
    ENGINES,
    CompiledBatchEngine,
    EventDrivenEngine,
    GRLCircuitEngine,
    InterpretedEngine,
)
from repro.testing.oracles import run_backends, saturate_outputs

SORTERS = {"bitonic": bitonic_sort, "odd-even": odd_even_merge_sort}


def _sorter_net(width, algorithm="bitonic", builder_cls=NetworkBuilder):
    b = builder_cls(f"{algorithm}{width}")
    xs = [b.input(f"x{i}") for i in range(width)]
    for k, wire in enumerate(SORTERS[algorithm](b, xs)):
        b.output(f"s{k}", wire)
    return b.build()


def _volleys(width, rng, count=24):
    """Random volleys plus ties, ∞, MAX_FINITE and near-sentinel times."""
    fixed = [
        (0,) * width,
        (INF,) * width,
        (3,) * width,
        (MAX_FINITE,) * width,
        tuple(MAX_FINITE - (i % 3) if i % 2 else i for i in range(width)),
        tuple(INF if i % 2 else 0 for i in range(width)),
    ]
    randoms = [
        tuple(
            INF if rng.random() < 0.25 else rng.randint(0, 6)
            for _ in range(width)
        )
        for _ in range(count)
    ]
    return fixed + randoms


def _interpreted(network, volleys):
    """Reference outputs, saturated at the sentinel as the oracles compare."""
    out_ids = list(network.outputs.values())
    rows = []
    for volley in volleys:
        values = evaluate_all_interpreted(
            network, dict(zip(network.input_names, volley))
        )
        rows.append(saturate_outputs([values[i] for i in out_ids]))
    return rows


def _agrees(program, network, volleys):
    """The compiled *program* matches the interpreted comparator *network*."""
    got = decode_matrix(evaluate_batch(program, volleys))
    return got == _interpreted(network, volleys)


def _e2e_column(n_inputs):
    """The served SRM0 column of the end-to-end benchmark (same recipe)."""
    rng = random.Random(0)
    neuron = SRM0Neuron.homogeneous(
        n_inputs,
        [rng.randint(1, 3) for _ in range(n_inputs)],
        base_response=ResponseFunction.piecewise_linear(
            amplitude=2, rise=1, fall=3
        ),
        threshold=3,
    )
    return build_srm0_network(neuron, name=f"e2e-col-{n_inputs}in")


def _sort_nodes(program):
    return [n for n in program.nodes if n.kind in ("min", "max") and "sort" in n.tags]


class _FaultyBuilder(NetworkBuilder):
    """Emits one comparator (the *victim*-th) of a sorter wrongly."""

    def __init__(self, name, fault, victim):
        super().__init__(name)
        self.fault, self.victim, self.seen, self.here = fault, victim, 0, False

    def min(self, *srcs, tag=""):
        if tag != "sort":
            return super().min(*srcs, tag=tag)
        self.here = self.seen == self.victim
        self.seen += 1
        if self.here and self.fault == "missing":
            return srcs[0]
        if self.here and self.fault == "swapped":
            return super().max(*srcs, tag=tag)
        return super().min(*srcs, tag=tag)

    def max(self, *srcs, tag=""):
        if tag != "sort" or not self.here:
            return super().max(*srcs, tag=tag)
        if self.fault == "missing":
            return srcs[1]
        if self.fault == "swapped":
            return super().min(*srcs, tag=tag)
        return super().max(srcs[1], srcs[0], tag=tag)  # crossed


class _UntaggedBuilder(NetworkBuilder):
    """Emits comparators without the ``sort`` tag."""

    def min(self, *srcs, tag=""):
        return super().min(*srcs)

    def max(self, *srcs, tag=""):
        return super().max(*srcs)


class TestRecognition:
    @pytest.mark.parametrize("algorithm", sorted(SORTERS))
    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17])
    def test_every_width_lowers_to_one_row_per_output(self, algorithm, width):
        net = _sorter_net(width, algorithm)
        grouped = group_sorters(net)
        assert not _sort_nodes(grouped)
        ranks = [grouped.nodes[i] for i in grouped.rank_ids]
        assert [n.amount for n in ranks] == list(range(width))
        assert {n.sources for n in ranks} == {tuple(range(width))}
        assert _agrees(grouped, net, _volleys(width, random.Random(width)))

    def test_width_one_has_nothing_to_lower(self):
        net = _sorter_net(1)
        assert group_sorters(net) is net

    def test_both_sorters_of_the_wide_served_column_lower(self):
        net = _e2e_column(80)
        assert len(_sort_nodes(net)) == 28288
        grouped = group_sorters(net)
        assert not _sort_nodes(grouped)
        widths = {grouped.nodes[i].sources for i in grouped.rank_ids}
        assert [len(s) for s in widths] == [328, 328]
        plan = compile_plan(optimize_program(grouped)[0])
        assert sum(isinstance(k, _SortKernel) for k in plan.kernels) == 2
        rng = random.Random(80)
        volleys = [
            tuple(
                INF if rng.random() < 0.2 else rng.randint(0, 1000) for _ in range(80)
            )
            for _ in range(4)
        ]
        assert decode_matrix(evaluate_batch(plan.program, volleys)) == (
            decode_matrix(evaluate_batch(net, volleys))
        )

    def test_duplicate_lanes_rank_the_multiset(self):
        b = NetworkBuilder("dups")
        x, y = b.inputs("x", "y")
        for k, wire in enumerate(bitonic_sort(b, [x, y, x, b.inc(y, 1), x])):
            b.output(f"s{k}", wire)
        net = b.build()
        grouped = group_sorters(net)
        lanes = grouped.nodes[grouped.rank_ids[0]].sources
        assert sorted(lanes) == sorted([0, 1, 0, 2, 0])
        assert _agrees(grouped, net, _volleys(2, random.Random(2)))

    def test_sorter_inside_a_dag_keeps_the_rest(self):
        b = NetworkBuilder("dag")
        x, y, z = b.inputs("x", "y", "z")
        lanes = [b.inc(x, 1), b.lt(y, z), b.max(x, z), y]
        out = bitonic_sort(b, lanes)
        b.output("first", b.inc(out[0], 2))
        b.output("race", b.lt(out[1], out[3]))
        net = b.build()
        grouped = group_sorters(net)
        # Only the read outputs (ranks 0, 1 and 3) become rows.
        assert sorted(grouped.nodes[i].amount for i in grouped.rank_ids) == [0, 1, 3]
        assert _agrees(grouped, net, _volleys(3, random.Random(3)))


class TestNearMisses:
    """Regions that look like sorters but are not lowered."""

    @pytest.mark.parametrize("fault", ["missing", "swapped", "crossed"])
    @pytest.mark.parametrize("algorithm", sorted(SORTERS))
    def test_one_faulty_comparator_stays_comparators(self, fault, algorithm):
        for victim in (0, 3, 6):
            net = _sorter_net(
                6,
                algorithm,
                lambda name: _FaultyBuilder(name, fault, victim),
            )
            grouped = group_sorters(net)
            assert not grouped.rank_ids, (fault, victim)
            assert _agrees(grouped, net, _volleys(6, random.Random(victim)))

    def test_interior_wire_read_outside_blocks_lowering(self):
        b = NetworkBuilder("leak")
        xs = [b.input(f"x{i}") for i in range(4)]
        out = bitonic_sort(b, xs)
        for k, wire in enumerate(out):
            b.output(f"s{k}", wire)
        net_ok = b.build()
        interior = min(
            n.id for n in net_ok.nodes if n.kind == "min" and n.id not in
            {r.id for r in out}
        )
        b.output("peek", b.inc(interior, 1))
        net = b.build()
        assert group_sorters(net_ok).rank_ids
        assert not group_sorters(net).rank_ids
        assert _agrees(group_sorters(net), net, _volleys(4, random.Random(4)))

    def test_interior_wire_as_program_output_blocks_lowering(self):
        b = NetworkBuilder("tap")
        xs = [b.input(f"x{i}") for i in range(4)]
        out = bitonic_sort(b, xs)
        b.output("top", out[3])
        b.output("tap", 4)  # the first comparator's min: interior
        assert not group_sorters(b.build()).rank_ids

    def test_untagged_comparators_of_the_right_shape_stay(self):
        net = _sorter_net(8, "bitonic", _UntaggedBuilder)
        assert len([n for n in net.nodes if n.kind in ("min", "max")]) == 48
        assert group_sorters(net) is net

    def test_chained_sorters_join_one_region_that_is_no_sorter(self):
        b = NetworkBuilder("chain")
        xs = [b.input(f"x{i}") for i in range(4)]
        again = bitonic_sort(b, bitonic_sort(b, xs))
        for k, wire in enumerate(again):
            b.output(f"s{k}", wire)
        net = b.build()
        assert not group_sorters(net).rank_ids

    def test_separated_sorters_each_lower(self):
        b = NetworkBuilder("pair")
        xs = [b.input(f"x{i}") for i in range(5)]
        first = odd_even_merge_sort(b, xs)
        second = bitonic_sort(b, [b.inc(w, 1) for w in first])
        for k, wire in enumerate(second):
            b.output(f"s{k}", wire)
        net = b.build()
        grouped = group_sorters(net)
        assert len({grouped.nodes[i].sources for i in grouped.rank_ids}) == 2
        assert _agrees(grouped, net, _volleys(5, random.Random(5)))


class TestInvariants:
    def test_idempotent(self):
        grouped = group_sorters(_e2e_column(10))
        again = group_sorters(grouped)
        assert again is grouped
        assert same_structure(again, grouped)

    def test_memoized_per_program(self):
        program = _sorter_net(5)
        assert group_sorters(program) is group_sorters(program)

    def test_memo_keeps_no_ungrouped_network_alive(self):
        net = _sorter_net(1)
        assert group_sorters(net) is net
        alive = weakref.ref(net)
        del net
        gc.collect()
        assert alive() is None

    def test_provenance_names_the_replaced_output_comparator(self):
        net = _sorter_net(5)
        grouped = group_sorters(net)
        for node_id in grouped.rank_ids:
            k = grouped.nodes[node_id].amount
            assert grouped.provenance[node_id] == (net.outputs[f"s{k}"],)
        covered = {root for roots in grouped.provenance.values() for root in roots}
        interior = {n.id for n in _sort_nodes(net)} - set(net.outputs.values())
        assert not covered & interior

    def test_fingerprint_and_model_document_are_untouched(self):
        net = _e2e_column(10)
        fingerprint = net.fingerprint()
        grouped = group_sorters(net)
        assert net.fingerprint() == fingerprint
        assert grouped.fingerprint() != fingerprint

    def test_fingerprint_covers_the_rank(self):
        terminals = (Node(0, "input", name="a"), Node(1, "input", name="b"))
        low = Network(terminals + (Node.rank(2, (0, 1), 0),), {"y": 2})
        high = Network(terminals + (Node.rank(2, (0, 1), 1),), {"y": 2})
        assert low.fingerprint() != high.fingerprint()

    def test_optimize_mode_diffs_the_served_load_path(self, monkeypatch):
        seen = {}
        for engine in ENGINES:

            def spy(self, network, volleys, params=None, run=engine.run):
                seen[self.name] = network
                return run(self, network, volleys, params)

            monkeypatch.setattr(engine, "run", spy)
        case = generate_case(1, family="sorters")
        result = run_backends(case.network, case.volleys, optimize=True)
        served, _ = optimize_program(group_sorters(case.network))
        assert same_structure(result.program, served) and served.rank_ids
        assert set(seen) == {engine.name for engine in ENGINES}
        assert all(program is result.program for program in seen.values())
        for index in range(len(case.volleys)):
            outputs = {rows[index] for rows in result.results.values()}
            assert len(outputs - {None}) == 1, index  # None: GRL skipped it

    def test_sorters_family_serving_composition_agrees(self):
        """``optimize(group(net))``, the load path, on the family."""
        for seed in range(30):
            case = generate_case(seed, smoke=seed % 2 == 0, family="sorters")
            served, _ = optimize_program(group_sorters(case.network))
            got = decode_matrix(evaluate_batch(served, list(case.volleys)))
            assert got == _interpreted(case.network, case.volleys), seed


class TestSweepTreatsRankRowsAsOpaque:
    def _constant_lanes(self):
        b = NetworkBuilder("consts")
        x, y = b.inputs("x", "y")
        zero = b.max()  # the constant 0
        never = b.lt(x, x)  # provably ∞
        out = bitonic_sort(b, [x, zero, never, y, never])
        b.output("lo", b.min(out[0], x))
        b.output("mid", out[2])
        b.output("hi", b.inc(out[4], 1))
        return b.build()

    def test_width_duplicates_and_rows_survive_the_sweep(self):
        net = self._constant_lanes()
        grouped = group_sorters(net)
        optimized, _ = optimize_program(grouped)
        ranks = [optimized.nodes[i] for i in optimized.rank_ids]
        assert sorted(n.amount for n in ranks) == [0, 2, 4]
        lanes = {n.sources for n in ranks}
        assert len(lanes) == 1
        (lanes,) = lanes
        assert len(lanes) == 5
        assert lanes[2] == lanes[4]  # the never wire, kept twice, in place
        never = optimized.nodes[lanes[2]]
        assert never.kind == "lt" and never.sources[0] == never.sources[1]
        # min(rank0, x) is not folded through the rank row.
        lo = optimized.nodes[optimized.outputs["lo"]]
        assert lo.kind == "min" and any(s in optimized.rank_ids for s in lo.sources)
        assert _agrees(optimized, net, _volleys(2, random.Random(7)))

    def test_sweep_is_a_fixpoint_on_rank_rows(self):
        optimized, _ = optimize_program(group_sorters(self._constant_lanes()))
        again, report = optimize_program(optimized)
        assert again is optimized and report.removed == 0

    def test_identical_sorters_hash_cons_to_one(self):
        b = NetworkBuilder("twins")
        xs = [b.input(f"x{i}") for i in range(3)]
        first = bitonic_sort(b, xs)
        b.output("a", b.inc(first[1], 1))
        second = bitonic_sort(b, list(xs))
        b.output("b", b.inc(second[1], 1))
        net = b.build()
        grouped = group_sorters(net)
        assert len(grouped.rank_ids) == 2
        optimized, _ = optimize_program(grouped)
        assert len(optimized.rank_ids) == 1
        assert optimized.outputs["a"] == optimized.outputs["b"]


class TestSortKernel:
    def test_nonconsecutive_ranks_take_an_index(self):
        b = NetworkBuilder("gaps")
        xs = [b.input(f"x{i}") for i in range(6)]
        out = bitonic_sort(b, xs)
        b.output("a", out[0])
        b.output("b", out[3])
        b.output("c", out[5])
        net = b.build()
        plan = compile_plan(group_sorters(net))
        (kernel,) = [k for k in plan.kernels if isinstance(k, _SortKernel)]
        assert list(kernel.ranks) == [0, 3, 5]
        assert _agrees(plan.program, net, _volleys(6, random.Random(6)))
        assert "sort" in plan.describe() and "width=6" in plan.describe()

    @pytest.mark.parametrize("batch", [1, 2, 7, 64, 130])
    def test_every_batch_size(self, batch):
        net = _sorter_net(9, "odd-even")
        grouped = group_sorters(net)
        rng = np.random.default_rng(batch)
        matrix = rng.integers(0, 5, size=(batch, 9))
        matrix[rng.random((batch, 9)) < 0.3] = np.iinfo(np.int64).max
        matrix[:, 0] = MAX_FINITE
        np.testing.assert_array_equal(
            evaluate_batch(grouped, matrix), evaluate_batch(net, matrix)
        )


class TestRankRowsStayInTheIR:
    def test_public_node_constructor_refuses_rank(self):
        with pytest.raises(ValueError):
            Node(2, "rank", (0, 1), 0)

    def test_rank_node_validates(self):
        with pytest.raises(ValueError):
            Node.rank(2, (0, 1), 2)
        with pytest.raises(ValueError):
            Node.rank(1, (0, 1), 0)
        with pytest.raises(ValueError):
            Node.rank(1, (), 0)

    def test_model_document_refuses_rank(self):
        document = json.loads(dumps(_sorter_net(2)))
        document["nodes"][2]["kind"] = "rank"
        with pytest.raises((ValueError, NetworkError)):
            loads(json.dumps(document))

    def test_dumps_refuses_rank_rows(self):
        grouped = group_sorters(_sorter_net(4))
        assert grouped.rank_ids
        with pytest.raises(NetworkError, match="rank"):
            dumps(grouped)

    def test_registering_rank_rows_fails_before_any_build(self):
        from repro.serve.registry import ModelRegistry

        def build(packed):
            raise AssertionError("a rank-row network reached the build")

        registry = ModelRegistry()
        with pytest.raises(NetworkError, match="rank"):
            registry.register(group_sorters(_sorter_net(4)), build=build)
        assert len(registry) == 0


def _ranked(width, algorithm):
    """A grouped sorter over *width* lanes, its raw comparator twin and
    its volleys.

    Lanes repeat inputs (duplicates, so ties) and every third one is
    delayed by 1, so a ``MAX_FINITE`` input crosses the sentinel.  A
    single lane has no comparator to group; its rank row is built
    directly, and the lane itself is its twin.
    """
    b = NetworkBuilder(f"ranked-{algorithm}{width}")
    xs = [b.input(f"x{i}") for i in range(max(1, (width + 1) // 2))]
    lanes = [
        b.inc(xs[i % len(xs)], 1) if i % 3 == 2 else xs[i % len(xs)]
        for i in range(width)
    ]
    if width == 1:
        b.output("s0", lanes[0])
        net = b.build()
        grouped = Network(net.nodes + (Node.rank(1, (0,), 0),), {"s0": 1})
    else:
        for k, wire in enumerate(SORTERS[algorithm](b, lanes)):
            b.output(f"s{k}", wire)
        net = b.build()
        grouped = group_sorters(net)
    assert len(grouped.rank_ids) == width
    return grouped, net, _volleys(len(xs), random.Random(width))


def _engines():
    """Every engine, the GRL one with room for a 17-lane sorter."""
    return [
        InterpretedEngine(),
        CompiledBatchEngine(),
        EventDrivenEngine(),
        GRLCircuitEngine(max_gates=2000),
    ]


class TestEveryEngineRunsRankRows:
    @pytest.mark.parametrize("algorithm", sorted(SORTERS))
    @pytest.mark.parametrize("width", range(1, 18))
    def test_grouped_sorters_match_their_comparators(self, algorithm, width):
        grouped, net, volleys = _ranked(width, algorithm)
        want = _interpreted(net, volleys)
        run = run_backends(grouped, volleys, oracles=_engines())
        assert run.skipped == {}
        for name, rows in run.results.items():
            for index, row in enumerate(rows):
                if row is None:  # the GRL budget: a near-sentinel volley
                    assert name == "grl-circuit"
                    assert max(v for v in volleys[index] if v != INF) > 32
                else:
                    assert row == want[index], (name, volleys[index])

    @pytest.mark.parametrize("algorithm", sorted(SORTERS))
    @pytest.mark.parametrize("width", [1, 2, 5, 8, 17])
    def test_traces_are_byte_identical(self, algorithm, width):
        grouped, _net, volleys = _ranked(width, algorithm)
        for volley in volleys:
            traces = {
                engine.name: engine.trace(grouped, volley) for engine in _engines()
            }
            documents = {
                to_jsonl(trace, grouped)
                for trace in traces.values()
                if trace is not None
            }
            assert len(documents) == 1, volley
            assert traces["grl-circuit"] is not None or max(
                v for v in volley if v != INF
            ) > 32

    def test_rank_cause_names_the_kth_lane_lowest_id_on_ties(self):
        row = Node.rank(4, (3, 1, 2, 0, 1), 2)
        assert cause_of(row, [5, 2, INF, 2]) == "rank2<-1"  # 2, 2, 2, 5, ∞
        assert cause_of(row, [5, 7, 1, 7]) == "rank2<-1"  # 1, 5, 7, 7, 7
        assert cause_of(Node.rank(4, (3, 1, 2, 0, 1), 0), [5, 7, 1, 7]) == "rank0<-2"
        assert cause_of(Node.rank(2, (0, 1), 1), [5, 5]) == "rank1<-0"

    def test_grl_budget_counts_the_sorter_a_rank_group_compiles_to(self):
        net = _sorter_net(12)
        grouped = group_sorters(net)
        reasons = {
            GRLCircuitEngine(max_gates=0).supports_network(p) for p in (net, grouped)
        }
        assert reasons == {
            "netlist too large for cycle simulation "
            f"({len(compile_network(grouped))} gates)"
        }

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000), st.booleans())
    def test_served_sorters_programs_agree_and_trace_alike(self, seed, smoke):
        case = generate_case(seed, smoke=smoke, family="sorters")
        params = case.params or None
        run = run_backends(case.network, case.volleys, params=params, optimize=True)
        program = run.program
        assert same_structure(
            program, optimize_program(group_sorters(case.network))[0]
        )
        compiled = run.results["compiled-batch"]
        for name, rows in run.results.items():
            for row, want in zip(rows, compiled):
                assert row is None or row == want, name
        for volley in run.volleys:
            documents = {
                to_jsonl(trace, program)
                for trace in (
                    engine().trace(program, volley, params) for engine in ENGINES
                )
                if trace is not None
            }
            assert len(documents) == 1, volley


# ---------------------------------------------------------------------------
# The recognizer is pure Python; a frozen NumPy copy of the previous
# recognizer is the reference it must agree with, program for program.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _numpy_canonical(algorithm, width):
    sort = bitonic_sort if algorithm == "bitonic" else odd_even_merge_sort
    recorder = sorters._Recorder()
    outputs = sort(recorder, [-1 - lane for lane in range(width)])
    ops = np.array(recorder.ops, dtype=np.int64).reshape(-1, 3)
    return ops[:, 0].astype(bool), ops[:, 1:], tuple(outputs)


def _numpy_split(nodes, start, stop, outside):
    run = nodes[start:stop]
    size = stop - start
    sources = [node.sources for node in run]
    lengths = np.fromiter(map(len, sources), np.int64, size)
    flat = np.fromiter(chain.from_iterable(sources), np.int64, int(lengths.sum()))
    reader = np.repeat(np.arange(size), lengths)
    internal = flat >= start
    outside.update(flat[~internal].tolist())
    cover = np.bincount(flat[internal] - start + 1, minlength=size + 1)
    cover -= np.bincount(reader[internal] + 1, minlength=size + 1)
    pairs = np.array(
        [i for i in range(1, size) if sources[i] == sources[i - 1]], np.int64
    )
    cover[pairs] += 1
    cover[pairs + 1] -= 1
    firsts = np.flatnonzero(np.cumsum(cover[:size]) == 0).tolist()
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    external = np.concatenate(
        ([0], np.cumsum(np.bincount(reader[~internal], minlength=size)))
    )
    is_max = np.fromiter((node.kind == "max" for node in run), bool, size)
    found = []
    for first, last in zip(firsts, firsts[1:] + [size]):
        if np.any(lengths[first:last] != 2):
            continue
        sorter = _numpy_recognize(
            start + first,
            start + last,
            int(external[last] - external[first]) // 2,
            is_max[first:last],
            flat[offsets[first]:offsets[last]].reshape(-1, 2),
        )
        if sorter is not None:
            found.append(sorter)
    return found


def _numpy_recognize(start, stop, width, is_max, got):
    if width < 2:
        return None
    for algorithm in sorters.ALGORITHMS:
        canon_max, handles, outputs = _numpy_canonical(algorithm, width)
        if len(canon_max) != stop - start or not np.array_equal(canon_max, is_max):
            continue
        node = handles >= 0
        if not np.array_equal(got[node], handles[node] + start):
            continue
        lane_of, wire = -1 - handles[~node], got[~node]
        if np.any(wire >= start):
            continue
        lanes = np.full(width, -1, dtype=np.int64)
        lanes[lane_of] = wire
        if np.array_equal(lanes[lane_of], wire) and lanes.min() >= 0:
            break
    else:
        return None
    if any(h is None or h < 0 for h in outputs):
        return None
    return sorters._Sorter(
        start, stop, tuple(lanes.tolist()), tuple(start + h for h in outputs)
    )


def _numpy_group_sorters(source):
    """``group_sorters`` as it was with the NumPy recognizer, unmemoized."""
    program = source
    nodes = program.nodes
    runs = sorters._runs(nodes)
    outside = set(program.outputs.values())
    in_run = bytearray(len(nodes))
    for start, stop in runs:
        in_run[start:stop] = b"\x01" * (stop - start)
    first = runs[0][0] if runs else len(nodes)
    for node in nodes[first:]:
        if not in_run[node.id]:
            outside.update(node.sources)
    found = [
        sorter
        for start, stop in runs
        for sorter in _numpy_split(nodes, start, stop, outside)
    ]
    found = [s for s in found if sorters._contained(s, outside)]
    return sorters._lower(program, found, outside) if found else program


def _assert_same_grouping(network):
    got = group_sorters(network)
    want = _numpy_group_sorters(network)
    assert got.fingerprint() == want.fingerprint()
    assert got.provenance == want.provenance
    assert got.outputs == want.outputs


def _near_misses():
    """Every near-miss network of :class:`TestNearMisses`, rebuilt."""
    nets = [
        _sorter_net(6, algorithm, lambda name: _FaultyBuilder(name, fault, victim))
        for fault in ("missing", "swapped", "crossed")
        for algorithm in sorted(SORTERS)
        for victim in (0, 3, 6)
    ]
    b = NetworkBuilder("leak")
    out = bitonic_sort(b, [b.input(f"x{i}") for i in range(4)])
    for k, wire in enumerate(out):
        b.output(f"s{k}", wire)
    b.output("peek", b.inc(4, 1))
    nets.append(b.build())
    b = NetworkBuilder("tap")
    out = bitonic_sort(b, [b.input(f"x{i}") for i in range(4)])
    b.output("top", out[3])
    b.output("tap", 4)
    nets.append(b.build())
    nets.append(_sorter_net(8, "bitonic", _UntaggedBuilder))
    b = NetworkBuilder("chain")
    again = bitonic_sort(b, bitonic_sort(b, [b.input(f"x{i}") for i in range(4)]))
    for k, wire in enumerate(again):
        b.output(f"s{k}", wire)
    nets.append(b.build())
    b = NetworkBuilder("pair")
    first = odd_even_merge_sort(b, [b.input(f"x{i}") for i in range(5)])
    second = bitonic_sort(b, [b.inc(w, 1) for w in first])
    for k, wire in enumerate(second):
        b.output(f"s{k}", wire)
    nets.append(b.build())
    return nets


class TestPurePythonRecognizerMatchesNumPy:
    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([name for name, _ in FAMILIES]),
        st.integers(0, 100_000),
        st.booleans(),
    )
    def test_every_family(self, family, seed, smoke):
        _assert_same_grouping(generate_case(seed, smoke=smoke, family=family).network)

    @pytest.mark.parametrize("algorithm", sorted(SORTERS))
    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 13, 16, 17])
    def test_every_width(self, algorithm, width):
        _assert_same_grouping(_sorter_net(width, algorithm))

    def test_near_misses(self):
        for net in _near_misses():
            _assert_same_grouping(net)

    def test_served_columns(self):
        for n_inputs in (10, 80):
            _assert_same_grouping(_e2e_column(n_inputs))
