"""The Program lowering: schedule, fingerprint, memoization, round trip."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.value import INF
from repro.ir import (
    CONST_IDENTITY,
    Program,
    classify,
    ensure_program,
    lower,
    optimize_program,
    same_structure,
)
from repro.ir.sorters import group_sorters
from repro.network import Network, NetworkBuilder, NetworkError, Node
from repro.network.compile_plan import compile_plan, evaluate_batch
from repro.testing.generators import FAMILIES, generate_case, random_sorter_network


def diamond() -> Network:
    b = NetworkBuilder("diamond")
    x = b.input("x")
    y = b.input("y")
    lo = b.min(x, y)
    hi = b.max(x, y)
    b.output("z", b.lt(lo, hi))
    return b.build()


class TestLowering:
    def test_shares_node_table(self):
        net = diamond()
        program = lower(net)
        assert program.nodes is net.nodes
        assert program.outputs == net.outputs

    def test_fingerprint_matches_network(self):
        net = diamond()
        assert lower(net).fingerprint() == net.fingerprint()

    def test_memoized_per_network_object(self):
        net = diamond()
        assert lower(net) is lower(net)

    def test_ensure_program_is_identity_on_programs(self):
        program = lower(diamond())
        assert ensure_program(program) is program

    def test_ensure_program_rejects_other_types(self):
        with pytest.raises(TypeError):
            ensure_program("not a network")

    def test_levels_are_longest_path(self):
        program = lower(diamond())
        # inputs at level 0, min/max at 1, lt at 2
        assert program.levels == (0, 0, 1, 1, 2)
        assert program.schedule == ((0, 1), (2, 3), (4,))
        assert program.depth == 2

    def test_terminal_and_output_maps(self):
        program = lower(diamond())
        assert program.input_names == ["x", "y"]
        assert program.param_names == []
        assert program.output_names == ["z"]
        assert program.size == 3  # min, max, lt

    def test_dense_ids_required(self):
        nodes = (Node(0, "input", name="x"), Node(2, "inc", sources=(0,)))
        with pytest.raises(NetworkError):
            Program(nodes, {})

    def test_round_trip_preserves_fingerprint(self):
        net = diamond()
        program = lower(net)
        again = program.to_network()
        assert again.fingerprint() == net.fingerprint()
        assert same_structure(program, lower(again))

    def test_provenance_defaults_to_identity(self):
        program = lower(diamond())
        assert program.provenance == {i: (i,) for i in range(5)}

    def test_consumers(self):
        program = lower(diamond())
        assert program.consumers()[0] == [2, 3]  # x feeds min and max
        assert program.consumers()[4] == []


class TestConstants:
    def test_classify_zero_source_min_max(self):
        assert classify(Node(0, "min")) == "const-inf"
        assert classify(Node(0, "max")) == "const-zero"
        assert classify(Node(0, "min", sources=())) == "const-inf"

    def test_classify_ordinary_nodes(self):
        assert classify(Node(0, "input", name="x")) == "input"
        assert classify(Node(1, "min", sources=(0,))) == "min"
        assert classify(Node(1, "max", sources=(0,))) == "max"

    def test_const_identity_values(self):
        assert CONST_IDENTITY["const-inf"] is INF
        assert CONST_IDENTITY["const-zero"] == 0

    def test_const_ids_collected(self):
        b = NetworkBuilder("consts")
        x = b.input("x")
        b.output("never", b.min())
        b.output("now", b.max())
        b.output("wire", b.max(x))
        program = lower(b.build())
        kinds = {classify(program.nodes[i]) for i in program.const_ids}
        assert kinds == {"const-inf", "const-zero"}
        assert len(program.const_ids) == 2


def served(network: Network) -> Program:
    """The program a served model runs: grouped sorters, then the sweep."""
    program, _report = optimize_program(group_sorters(lower(network)))
    return program


class TestPickle:
    """A Program pickles as its constructor arguments, nothing derived."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        family=st.sampled_from([name for name, _weight in FAMILIES]),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_the_same_program(self, seed, family):
        case = generate_case(seed, smoke=True, family=family)
        program = served(case.network)
        copy = pickle.loads(pickle.dumps(program, pickle.HIGHEST_PROTOCOL))
        assert copy.fingerprint() == program.fingerprint()
        assert same_structure(copy, program)
        assert (copy.levels, copy.schedule) == (program.levels, program.schedule)
        assert (copy.const_ids, copy.rank_ids) == (program.const_ids, program.rank_ids)
        assert (copy.name, copy.provenance) == (program.name, program.provenance)
        # The adversarial volleys include near-sentinel ones.
        params = case.params or None
        want = evaluate_batch(program, case.volleys, params=params)
        got = evaluate_batch(copy, case.volleys, params=params)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_compiled_program_pickles_to_the_same_bytes(self):
        program = served(random_sorter_network(seed=3, smoke=True))
        assert program.rank_ids
        before = pickle.dumps(program, pickle.HIGHEST_PROTOCOL)
        compile_plan(program).warm()
        program.fingerprint()
        program.consumers()
        assert pickle.dumps(program, pickle.HIGHEST_PROTOCOL) == before
        copy = pickle.loads(before)
        assert (copy._plan, copy._fingerprint, copy._consumers) == (None, None, None)

    def test_rank_rows_of_one_sorter_keep_one_source_tuple(self):
        program = served(random_sorter_network(seed=3, smoke=True))
        copy = pickle.loads(pickle.dumps(program, pickle.HIGHEST_PROTOCOL))

        def lanes(p):
            rows = [p.nodes[i] for i in p.rank_ids]
            return len({r.sources for r in rows}), len({id(r.sources) for r in rows})

        assert lanes(copy) == lanes(program)
        assert lanes(copy)[0] == lanes(copy)[1]

    def test_nodes_unpickle_through_their_checked_constructors(self):
        """A rank row comes back through ``Node.rank``, others through ``Node``."""
        program = served(random_sorter_network(seed=3, smoke=True))
        for node in program.nodes:
            copy = pickle.loads(pickle.dumps(node, pickle.HIGHEST_PROTOCOL))
            assert copy == node and copy.tags == node.tags
        rank = program.nodes[program.rank_ids[0]]
        restore, (node_id, sources, _k, tags) = rank.__reduce__()
        assert restore == Node.rank
        with pytest.raises(ValueError, match="out of range"):
            restore(node_id, sources, len(sources), tags)
        restore, (_id, kind, sources, amount, name, tags) = Node(3, "inc", (1,)).__reduce__()
        assert restore is Node
        with pytest.raises(ValueError, match="not upstream"):
            restore(1, kind, sources, amount, name, tags)

    def test_unpickling_revalidates_the_node_table(self):
        program = served(diamond())
        restore, (nodes, _outputs, name, provenance) = program.__reduce__()
        with pytest.raises(NetworkError, match="missing node"):
            restore(nodes, {"z": len(nodes)}, name, provenance)
