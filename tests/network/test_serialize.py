"""Tests for network JSON serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.function import enumerate_domain
from repro.core.synthesis import synthesize
from repro.core.table import FIG7_TABLE
from repro.core.value import INF
from repro.network.builder import NetworkBuilder
from repro.network.graph import NetworkError
from repro.network.serialize import (
    dumps,
    load,
    loads,
    network_from_dict,
    network_to_dict,
    save,
)
from repro.network.simulator import evaluate, evaluate_vector


def gated_network():
    b = NetworkBuilder("gated")
    x, y = b.inputs("x", "y")
    mu = b.param("mu")
    b.output("o", b.gate(b.inc(b.min(x, y), 3), mu))
    return b.build()


class TestRoundtrip:
    def test_simple_network(self):
        net = gated_network()
        back = loads(dumps(net))
        assert back.name == net.name
        assert back.input_names == net.input_names
        assert back.param_names == net.param_names
        assert back.output_names == net.output_names
        for vec in [(0, 4), (2, 2), (INF, 1)]:
            bound = dict(zip(net.input_names, vec))
            assert evaluate(back, bound, params={"mu": INF}) == evaluate(
                net, bound, params={"mu": INF}
            )

    def test_synthesized_network_semantics_preserved(self):
        net = synthesize(FIG7_TABLE)
        back = loads(dumps(net))
        f, g = net.as_function(), back.as_function()
        for vec in enumerate_domain(3, 3):
            assert f(*vec) == g(*vec), vec

    def test_file_roundtrip(self, tmp_path):
        net = synthesize(FIG7_TABLE)
        path = tmp_path / "net.json"
        save(net, path)
        back = load(path)
        assert evaluate_vector(back, (3, 4, 5))["y"] == 6

    def test_tags_preserved(self):
        b = NetworkBuilder()
        x = b.input("x")
        b.output("y", b.inc(x, 1, tag="special"))
        back = loads(dumps(b.build()))
        assert back.nodes[1].tags == ("special",)

    def test_compact_form(self):
        net = gated_network()
        text = dumps(net, indent=None)
        assert "\n" not in text
        assert loads(text).size == net.size


class TestValidationOnLoad:
    def test_wrong_format(self):
        with pytest.raises(NetworkError, match="format"):
            network_from_dict({"format": "other", "nodes": [], "outputs": {}})

    def test_invalid_json(self):
        with pytest.raises(NetworkError, match="JSON"):
            loads("{not json")

    def test_cycle_rejected(self):
        data = {
            "format": "repro.network/1",
            "nodes": [
                {"kind": "input", "name": "x"},
                {"kind": "inc", "sources": [1]},
            ],
            "outputs": {"y": 1},
        }
        with pytest.raises(NetworkError, match="invalid"):
            network_from_dict(data)

    def test_bad_output_reference(self):
        data = {
            "format": "repro.network/1",
            "nodes": [{"kind": "input", "name": "x"}],
            "outputs": {"y": 7},
        }
        with pytest.raises(NetworkError):
            network_from_dict(data)

    def test_malformed_node(self):
        data = {
            "format": "repro.network/1",
            "nodes": ["nope"],
            "outputs": {},
        }
        with pytest.raises(NetworkError, match="malformed"):
            network_from_dict(data)

    @staticmethod
    def _with_node(node, outputs=None):
        return {
            "format": "repro.network/1",
            "nodes": [{"kind": "input", "name": "x"}, node],
            "outputs": {"y": 1} if outputs is None else outputs,
        }

    def test_float_source_rejected(self):
        data = self._with_node({"kind": "inc", "sources": [0.0]})
        with pytest.raises(NetworkError, match=r"node #1 invalid: source ids"):
            network_from_dict(data)

    def test_float_amount_rejected(self):
        data = self._with_node({"kind": "inc", "sources": [0], "amount": 1.5})
        with pytest.raises(NetworkError, match=r"node #1 invalid: amount"):
            network_from_dict(data)

    def test_bool_amount_rejected(self):
        # ``true == 1``, but it would fingerprint as another model.
        data = self._with_node({"kind": "inc", "sources": [0], "amount": True})
        with pytest.raises(NetworkError, match=r"node #1 invalid: amount"):
            network_from_dict(data)

    def test_non_string_name_rejected(self):
        data = {
            "format": "repro.network/1",
            "nodes": [{"kind": "input", "name": 5}],
            "outputs": {},
        }
        with pytest.raises(NetworkError, match=r"node #0 invalid: name"):
            network_from_dict(data)

    def test_non_integer_output_rejected(self):
        data = self._with_node({"kind": "inc", "sources": [0]}, {"y": 1.0})
        with pytest.raises(NetworkError, match=r"output 'y' must be a node id"):
            network_from_dict(data)

    def test_integer_fields_still_load(self):
        data = self._with_node({"kind": "inc", "sources": [0], "amount": 1})
        assert network_from_dict(data).nodes[1].amount == 1

    def test_nodes_must_be_list(self):
        with pytest.raises(NetworkError, match="list"):
            network_from_dict(
                {"format": "repro.network/1", "nodes": {}, "outputs": {}}
            )

    def test_outputs_must_be_mapping(self):
        with pytest.raises(NetworkError, match="mapping"):
            network_from_dict(
                {
                    "format": "repro.network/1",
                    "nodes": [{"kind": "input", "name": "x"}],
                    "outputs": [],
                }
            )


class TestFingerprint:
    """Round-trips must preserve ``Network.fingerprint()`` bit-for-bit.

    The serving model registry keys on the fingerprint and worker
    processes verify it after rebuilding from the shipped document — a
    drift here would make every served model unloadable.
    """

    def test_dict_embeds_fingerprint(self):
        net = gated_network()
        assert network_to_dict(net)["fingerprint"] == net.fingerprint()

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_preserves_fingerprint_across_families(self, seed):
        from repro.testing.generators import generate_case

        net = generate_case(seed, smoke=True).network
        assert loads(dumps(net)).fingerprint() == net.fingerprint()

    def test_double_roundtrip_is_stable(self):
        net = synthesize(FIG7_TABLE)
        once = loads(dumps(net))
        twice = loads(dumps(once))
        assert (
            net.fingerprint() == once.fingerprint() == twice.fingerprint()
        )

    def test_compact_and_indented_agree(self):
        net = gated_network()
        assert (
            loads(dumps(net, indent=None)).fingerprint()
            == loads(dumps(net)).fingerprint()
        )

    def test_tampered_document_rejected(self):
        data = network_to_dict(gated_network())
        for entry in data["nodes"]:
            if entry["kind"] == "inc":
                entry["amount"] += 1
                break
        with pytest.raises(NetworkError, match="fingerprint mismatch"):
            network_from_dict(data)

    def test_tampered_output_name_rejected(self):
        data = network_to_dict(gated_network())
        data["outputs"] = {"renamed": next(iter(data["outputs"].values()))}
        with pytest.raises(NetworkError, match="fingerprint mismatch"):
            network_from_dict(data)

    def test_document_without_fingerprint_still_loads(self):
        data = network_to_dict(gated_network())
        del data["fingerprint"]
        assert network_from_dict(data).fingerprint() == gated_network().fingerprint()


class TestDictForm:
    def test_ids_are_implicit(self):
        data = network_to_dict(gated_network())
        assert all("id" not in entry for entry in data["nodes"])
        # Valid JSON document end-to-end.
        json.dumps(data)

    def test_amount_only_on_inc(self):
        data = network_to_dict(gated_network())
        for entry in data["nodes"]:
            if entry["kind"] != "inc":
                assert "amount" not in entry


def _plain_load(text):
    """The reference path: the whole JSON tree first, then validation."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise NetworkError(f"invalid JSON: {exc}") from exc
    return network_from_dict(data)


def _outcome(load, text):
    """What loading *text* gives: the network's full state, or the error."""
    try:
        net = load(text)
    except NetworkError as exc:
        return ("error", str(exc))
    return (
        "network",
        net.name,
        net.nodes,
        [node.tags for node in net.nodes],
        net.outputs,
        net.fingerprint(),
    )


def _document(nodes, outputs, **extra):
    return json.dumps(
        {"format": "repro.network/1", "nodes": nodes, "outputs": outputs, **extra}
    )


X = {"kind": "input", "name": "x"}


class TestStreamedDecode:
    """``loads`` builds nodes as the document streams, and means the same.

    Each case pins that ``loads`` loads exactly what the plain path
    (``network_from_dict(json.loads(text))``) loads, or refuses the
    document with the same message.
    """

    def assert_as_plain(self, text):
        got = _outcome(loads, text)
        assert got == _outcome(_plain_load, text)
        return got

    def test_nodes_carry_canonical_kinds_and_shared_tags(self):
        from repro.network.blocks import KINDS
        from repro.testing.generators import random_sorter_network

        net = loads(dumps(random_sorter_network(seed=3, smoke=True)))
        canonical = {kind: kind for kind in KINDS}
        assert all(node.kind is canonical[node.kind] for node in net.nodes)
        tags = {}
        for node in net.nodes:
            assert tags.setdefault(node.tags, node.tags) is node.tags

    def test_non_dict_node_entries(self):
        for entry in (5, "x", None, [X], True):
            got = self.assert_as_plain(_document([X, entry], {"y": 0}))
            assert got == ("error", "node #1 is malformed")

    def test_objects_nested_in_tags(self):
        inner = {"kind": "input", "name": "z"}
        text = _document(
            [X, {"kind": "inc", "sources": [0], "amount": 2, "tags": [inner]}],
            {"y": 1},
        )
        got = self.assert_as_plain(text)
        assert got[0] == "network" and got[3][1] == (inner,)

    def test_an_output_named_kind_stays_a_mapping(self):
        got = self.assert_as_plain(_document([X], {"kind": 0}))
        assert got[0] == "network" and got[4] == {"kind": 0}
        # Node-shaped: a zero-source min by its keys, an output map by position.
        got = self.assert_as_plain(_document([X], {"kind": "min"}))
        assert got == ("error", "output 'kind' must be a node id, got 'min'")

    @pytest.mark.parametrize("bad", [True, False, 0.0, 1.0])
    def test_bool_and_float_ids(self, bad):
        source = self.assert_as_plain(
            _document([X, {"kind": "inc", "sources": [bad]}], {"y": 1})
        )
        assert source[0] == "error" and "node #1 invalid: source ids" in source[1]
        output = self.assert_as_plain(_document([X], {"y": bad}))
        assert output == ("error", f"output 'y' must be a node id, got {bad!r}")

    def test_bad_format_after_valid_nodes(self):
        text = json.dumps({"nodes": [X], "outputs": {"y": 0}, "format": "other/2"})
        got = self.assert_as_plain(text)
        assert got[0] == "error" and "unsupported format 'other/2'" in got[1]

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '"repro.network/1"',
            json.dumps(X),
            _document([X], {"y": 0}, fingerprint=X),
            _document([X], {"y": 0}, name=[X]),
            _document([{"kind": "input", "name": "x", "comment": "hand-written"}], {"y": 0}),
            _document([{"name": "x", "kind": "input"}, X], {"y": 0}),
            # Duplicate keys: the last "nodes" list is the document's.
            '{"format": "repro.network/1", "nodes": [{"kind": "input", "name": "a"}], '
            '"nodes": [{"kind": "input", "name": "b"}], "outputs": {"y": 0}}',
        ],
    )
    def test_node_shaped_objects_out_of_place(self, text):
        self.assert_as_plain(text)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_documents_load_as_the_plain_path_does(self, data):
        """Truncated, type-swapped and edited documents: only NetworkError."""
        from repro.testing.generators import FAMILIES, generate_case

        family = data.draw(st.sampled_from([name for name, _ in FAMILIES]))
        seed = data.draw(st.integers(0, 10_000))
        doc = network_to_dict(generate_case(seed, smoke=True, family=family).network)
        mutation = data.draw(st.sampled_from(["none", "swap", "truncate", "edit"]))
        if mutation == "swap":
            _swap_one_value(doc, data)
        text = json.dumps(doc, indent=data.draw(st.sampled_from([None, 2])))
        if mutation == "truncate":
            text = text[: data.draw(st.integers(0, len(text) - 1))]
        elif mutation == "edit":
            at = data.draw(st.integers(0, len(text) - 1))
            text = text[:at] + data.draw(st.sampled_from(list('{}[]:,"0 -.etn'))) + text[at + 1 :]
        got = self.assert_as_plain(text)
        if mutation == "none":
            assert got[0] == "network"

    def test_loads_peak_stays_close_to_what_it_returns(self):
        """Decoding as the document streams keeps no per-node dict tree."""
        import random
        import tracemalloc

        from repro.neuron.response import ResponseFunction
        from repro.neuron.srm0 import SRM0Neuron
        from repro.neuron.srm0_network import build_srm0_network

        # The end-to-end benchmark's 10-input column (same recipe).
        rng = random.Random(0)
        neuron = SRM0Neuron.homogeneous(
            10,
            [rng.randint(1, 3) for _ in range(10)],
            base_response=ResponseFunction.piecewise_linear(amplitude=2, rise=1, fall=3),
            threshold=3,
        )
        text = dumps(build_srm0_network(neuron, name="e2e-col-10in"))
        loads(text)  # warm
        tracemalloc.start()
        try:
            net = loads(text)
            returned, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(net.nodes) > 1000
        assert peak <= 1.25 * returned, (peak, returned)


#: JSON values of every type, node-shaped objects included.
_VALUES = st.sampled_from(
    [None, True, False, 0, 1, -1, 2.5, 1.0, "", "kind", "min", [], [0], [True], {}, X,
     {"kind": "min"}, {"kind": "inc", "sources": [0]}, {"kind": "bogus"}]
)


def _swap_one_value(doc, data):
    """Replace one value anywhere in *doc* with a value of any JSON type."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        node[key] = data.draw(_VALUES)
        return
