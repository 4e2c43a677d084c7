"""Tests for network JSON serialization."""

import json

import pytest

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
