"""The scheduled network: schedule, fingerprint, memoization, round trip."""

import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.value import INF
from repro.ir import optimize_program
from repro.ir.sorters import group_sorters
from repro.network import Network, NetworkBuilder, NetworkError, Node
from repro.network.graph import (
    CONST_IDENTITY,
    IdentityProvenance,
    classify,
    same_structure,
)
from repro.network.serialize import dumps, loads
from repro.network.compile_plan import compile_plan, evaluate_batch
from repro.neuron.response import ResponseFunction
from repro.neuron.srm0 import SRM0Neuron
from repro.neuron.srm0_network import build_srm0_network
from repro.testing.generators import FAMILIES, generate_case, random_sorter_network


def _e2e_column(n_inputs):
    """The served SRM0 column of the end-to-end benchmark (same recipe)."""
    rng = random.Random(0)
    neuron = SRM0Neuron.homogeneous(
        n_inputs,
        [rng.randint(1, 3) for _ in range(n_inputs)],
        base_response=ResponseFunction.piecewise_linear(amplitude=2, rise=1, fall=3),
        threshold=3,
    )
    return build_srm0_network(neuron, name=f"e2e-col-{n_inputs}in")


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
        again = Network(net.nodes, net.outputs)
        assert again.nodes is net.nodes
        assert again.outputs == net.outputs

    def test_fingerprint_matches_network(self):
        net = diamond()
        assert Network(net.nodes, net.outputs, name="twin").fingerprint() == (
            net.fingerprint()
        )

    def test_memoized_per_network_object(self):
        net = random_sorter_network(seed=3, smoke=True)
        assert group_sorters(net) is group_sorters(net)
        assert group_sorters(net) is not group_sorters(loads(dumps(net)))

    def test_levels_are_longest_path(self):
        program = diamond()
        # inputs at level 0, min/max at 1, lt at 2
        assert program.levels == (0, 0, 1, 1, 2)
        assert program.schedule == ((0, 1), (2, 3), (4,))
        assert program.depth() == len(program.schedule) - 1 == 2

    def test_terminal_and_output_maps(self):
        program = diamond()
        assert program.input_names == ["x", "y"]
        assert program.param_names == []
        assert program.output_names == ["z"]
        assert program.size == 3  # min, max, lt

    def test_dense_ids_required(self):
        nodes = (Node(0, "input", name="x"), Node(2, "inc", sources=(0,)))
        with pytest.raises(NetworkError):
            Network(nodes, {})

    def test_round_trip_preserves_fingerprint(self):
        net = diamond()
        again = loads(dumps(net))
        assert again.fingerprint() == net.fingerprint()
        assert same_structure(net, again)
        assert (again.levels, again.schedule) == (net.levels, net.schedule)

    def test_provenance_defaults_to_identity(self):
        program = diamond()
        assert program.provenance == {i: (i,) for i in range(5)}

    def test_identity_provenance_reads_as_the_dict_and_stores_no_entries(self):
        program = diamond()
        identity = {i: (i,) for i in range(5)}
        prov = program.provenance
        assert isinstance(prov, IdentityProvenance) and not isinstance(prov, dict)
        assert identity == prov and prov == identity and prov != {0: (0,)}
        assert (len(prov), list(prov), dict(prov.items())) == (5, list(range(5)), identity)
        assert (prov[4], prov.get(2), prov.get(5), prov.get(-1), prov.get("x")) == (
            (4,), (2,), None, None, None
        )
        with pytest.raises(KeyError):
            prov[5]
        copy = pickle.loads(pickle.dumps(program, pickle.HIGHEST_PROTOCOL))
        assert isinstance(copy.provenance, IdentityProvenance)
        assert copy.provenance == prov

    def test_a_rewrite_composes_a_real_provenance_dict(self):
        program = served(random_sorter_network(seed=3, smoke=True))
        assert type(program.provenance) is dict
        assert set(program.provenance) == set(range(len(program.nodes)))

    def test_consumers(self):
        program = diamond()
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
        program = b.build()
        kinds = {classify(program.nodes[i]) for i in program.const_ids}
        assert kinds == {"const-inf", "const-zero"}
        assert len(program.const_ids) == 2


def served(network: Network) -> Network:
    """The program a served model runs: grouped sorters, then the sweep."""
    program, _report = optimize_program(group_sorters(network))
    return program


class TestPickle:
    """A network pickles as its constructor arguments, nothing derived."""

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


def _frozen_fingerprint(nodes, outputs, amount_kinds):
    """The fingerprint loops as first written, kept to pin the digest."""
    digest = hashlib.sha256()
    for node in nodes:
        digest.update(
            repr(
                (
                    node.kind,
                    node.sources,
                    node.amount if node.kind in amount_kinds else 0,
                    node.name or "",
                )
            ).encode()
        )
    digest.update(repr(list(outputs.items())).encode())
    return digest.hexdigest()


def _assert_digests_unchanged(network):
    assert network.fingerprint() == _frozen_fingerprint(
        network.nodes, network.outputs, ("inc",)
    )
    for program in (group_sorters(network), served(network)):
        program._fingerprint = None
        assert program.fingerprint() == _frozen_fingerprint(
            program.nodes, program.outputs, ("inc", "rank")
        )


class TestStructuralDigest:
    """One digest for built, grouped and optimized networks, bit-identical
    to the old loops."""

    @pytest.mark.parametrize("family", [name for name, _weight in FAMILIES])
    def test_every_family(self, family):
        for seed in range(8):
            _assert_digests_unchanged(generate_case(seed, smoke=True, family=family).network)

    def test_the_wide_served_column_and_its_program(self):
        net = _e2e_column(80)
        program = served(net)
        assert program.rank_ids  # the rank rows share one long lane tuple
        _assert_digests_unchanged(net)
