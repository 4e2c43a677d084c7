"""Tests for NetworkBuilder and Node construction."""

import copy
import dataclasses
import pickle
import random

import pytest

from repro.network.blocks import Node
from repro.network.builder import NetworkBuilder
from repro.network.graph import Network, NetworkError
from repro.network.simulator import evaluate, evaluate_vector
from repro.core.value import INF


def build_fig6b():
    """The small example network of the paper's Fig. 6b shape."""
    b = NetworkBuilder("fig6b")
    x1, x2, x3 = b.inputs("x1", "x2", "x3")
    first = b.min(x1, x2)
    delayed = b.inc(first, 2)
    b.output("y", b.lt(delayed, x3))
    return b.build()


def ndarray_nbytes(value) -> int:
    """Resident ndarray bytes reachable from *value*, plus 64 bytes.

    Walks dicts, sequences and instance ``__dict__``s, counting each
    array once; scalars and strings cost nothing.  The flat 64 keeps the
    pinned figures comparable with earlier plan-size records.
    """
    seen: set[int] = set()

    def walk(obj) -> int:
        if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
            return 0
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        nbytes = getattr(obj, "nbytes", None)
        if isinstance(nbytes, int) and hasattr(obj, "dtype"):
            return nbytes
        if isinstance(obj, dict):
            return sum(walk(v) for v in obj.values())
        if isinstance(obj, (list, tuple, set, frozenset)):
            return sum(walk(v) for v in obj)
        return sum(walk(v) for v in getattr(obj, "__dict__", {}).values())

    return 64 + walk(value)


class TestBuilder:
    def test_basic_network(self):
        net = build_fig6b()
        assert net.input_names == ["x1", "x2", "x3"]
        assert net.output_names == ["y"]
        assert net.size == 3

    def test_evaluation(self):
        net = build_fig6b()
        assert evaluate_vector(net, (1, 4, 9))["y"] == 3
        assert evaluate_vector(net, (1, 4, 3))["y"] is INF

    def test_duplicate_input_name(self):
        b = NetworkBuilder()
        b.input("a")
        with pytest.raises(NetworkError, match="duplicate"):
            b.input("a")

    def test_param_and_input_share_namespace(self):
        b = NetworkBuilder()
        b.input("mu")
        with pytest.raises(NetworkError):
            b.param("mu")

    def test_duplicate_output_name(self):
        b = NetworkBuilder()
        a = b.input("a")
        b.output("y", a)
        with pytest.raises(NetworkError, match="duplicate"):
            b.output("y", a)

    def test_no_outputs_rejected(self):
        b = NetworkBuilder()
        b.input("a")
        with pytest.raises(NetworkError, match="no outputs"):
            b.build()

    def test_foreign_ref_rejected(self):
        b1, b2 = NetworkBuilder(), NetworkBuilder()
        a = b1.input("a")
        with pytest.raises(NetworkError, match="another builder"):
            b2.inc(a)

    def test_zero_inc_elided(self):
        b = NetworkBuilder()
        a = b.input("a")
        same = b.inc(a, 0)
        assert same.id == a.id

    def test_single_source_min_elided(self):
        b = NetworkBuilder()
        a = b.input("a")
        assert b.min(a).id == a.id
        assert b.max(a).id == a.id

    def test_comparator(self):
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        lo, hi = b.comparator(x, y)
        b.output("lo", lo)
        b.output("hi", hi)
        net = b.build()
        out = evaluate_vector(net, (7, 3))
        assert out == {"lo": 3, "hi": 7}

    def test_gate_microweight(self):
        b = NetworkBuilder()
        x = b.input("x")
        mu = b.param("mu")
        b.output("z", b.gate(x, mu))
        net = b.build()
        assert evaluate(net, {"x": 4}, params={"mu": INF})["z"] == 4
        assert evaluate(net, {"x": 4}, params={"mu": 0})["z"] is INF


class TestMerge:
    def test_merge_with_rename(self):
        inner_b = NetworkBuilder("inner")
        p, q = inner_b.inputs("p", "q")
        inner_b.output("m", inner_b.min(p, q))
        inner = inner_b.build()

        outer = NetworkBuilder("outer")
        a, b_in = outer.inputs("a", "b")
        refs = outer.merge(inner, rename={"p": a, "q": b_in})
        outer.output("y", outer.inc(refs["m"], 1))
        net = outer.build()
        assert net.input_names == ["a", "b"]
        assert evaluate_vector(net, (5, 2))["y"] == 3

    def test_merge_fresh_inputs_with_prefix(self):
        inner_b = NetworkBuilder("inner")
        p = inner_b.input("p")
        inner_b.output("o", inner_b.inc(p, 1))
        inner = inner_b.build()

        outer = NetworkBuilder("outer")
        refs = outer.merge(inner, prefix="sub_")
        outer.output("y", refs["o"])
        net = outer.build()
        assert net.input_names == ["sub_p"]

    def test_merge_imports_params(self):
        inner_b = NetworkBuilder("inner")
        x = inner_b.input("x")
        mu = inner_b.param("mu")
        inner_b.output("z", inner_b.gate(x, mu))
        inner = inner_b.build()

        outer = NetworkBuilder("outer")
        a = outer.input("a")
        refs = outer.merge(inner, rename={"x": a})
        outer.output("y", refs["z"])
        net = outer.build()
        assert net.param_names == ["mu"]
        assert evaluate(net, {"a": 2}, params={"mu": INF})["y"] == 2


class TestNode:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Node(0, "xor")

    def test_input_with_sources_rejected(self):
        with pytest.raises(ValueError):
            Node(1, "input", sources=(0,), name="a")

    def test_terminal_needs_name(self):
        with pytest.raises(ValueError, match="name"):
            Node(0, "input")

    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError, match="feedforward"):
            Node(1, "inc", sources=(2,))

    def test_self_reference_rejected(self):
        with pytest.raises(ValueError, match="feedforward"):
            Node(1, "inc", sources=(1,))

    def test_lt_arity(self):
        with pytest.raises(ValueError, match="two sources"):
            Node(3, "lt", sources=(0, 1, 2))

    def test_inc_arity(self):
        with pytest.raises(ValueError, match="one source"):
            Node(2, "inc", sources=(0, 1))

    def test_negative_inc_amount_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Node(1, "inc", sources=(0,), amount=-1)

    def test_negative_source_rejected(self):
        with pytest.raises(ValueError, match="negative source id"):
            Node(1, "max", sources=(-1,))

    def test_zero_source_min_max_allowed(self):
        # The lattice identity constants: empty min = ∞, empty max = 0.
        assert Node(1, "min", sources=()).sources == ()
        assert Node(1, "max", sources=()).sources == ()

    def test_describe(self):
        assert "inc(+3)" in Node(1, "inc", sources=(0,), amount=3).describe()
        assert "input" in Node(0, "input", name="a").describe()


#: Every check ``Node.__init__`` makes, with its exact message.
NODE_REJECTIONS = [
    (dict(id=0, kind="xor"), "unknown node kind 'xor'"),
    (dict(id=1, kind="input", sources=(0,), name="a"), "input node cannot have sources"),
    (dict(id=1, kind="param", sources=(0,), name="m"), "param node cannot have sources"),
    (dict(id=0, kind="input"), "input node needs a name"),
    (dict(id=0, kind="param", name=""), "param node needs a name"),
    (
        dict(id=2, kind="min", sources=(0, 3, 1)),
        "node 2 has a source 3 that is not upstream (network must be feedforward)",
    ),
    (
        dict(id=1, kind="inc", sources=(1,)),
        "node 1 has a source 1 that is not upstream (network must be feedforward)",
    ),
    # The feedforward check comes first, and names the largest source.
    (
        dict(id=2, kind="max", sources=(-1, 5)),
        "node 2 has a source 5 that is not upstream (network must be feedforward)",
    ),
    (dict(id=2, kind="max", sources=(0, -1)), "negative source id"),
    (dict(id=1, kind="inc"), "inc takes exactly one source"),
    (dict(id=2, kind="inc", sources=(0, 1)), "inc takes exactly one source"),
    (dict(id=1, kind="inc", sources=(0,), amount=-1), "inc amount must be non-negative"),
    (dict(id=2, kind="lt", sources=(0,)), "lt takes exactly two sources (a, b)"),
    (dict(id=3, kind="lt", sources=(0, 1, 2)), "lt takes exactly two sources (a, b)"),
]


@pytest.mark.parametrize(
    "kwargs, message", NODE_REJECTIONS, ids=[m for _, m in NODE_REJECTIONS]
)
def test_node_rejection_message(kwargs, message):
    with pytest.raises(ValueError) as info:
        Node(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "left, right, equal",
    [
        (Node(2, "min", (0, 1), tags=("a",)), Node(2, "min", (0, 1), tags=("b",)), True),
        (Node(0, "input", name="x", tags=("t",)), Node(0, "input", name="x"), True),
        (Node(1, "inc", (0,), 2), Node(1, "inc", (0,), 3), False),
        (Node(2, "min", (0, 1)), Node(2, "max", (0, 1)), False),
        (Node(2, "min", (0, 1)), Node(2, "min", (1, 0)), False),
        (Node(2, "min", (0, 1)), Node(3, "min", (0, 1)), False),
        (Node(0, "input", name="x"), Node(0, "input", name="y"), False),
    ],
)
def test_node_equality_and_hash_ignore_only_tags(left, right, equal):
    assert (left == right) is equal
    if equal:
        assert hash(left) == hash(right)


class TestSlottedNode:
    """``Node`` is a slotted frozen dataclass with unchanged semantics."""

    node = Node(3, "min", sources=(0, 2), tags=("comparator",))

    def test_no_instance_dict(self):
        assert not hasattr(self.node, "__dict__")
        # CPython may raise TypeError rather than AttributeError: the
        # generated frozen __setattr__ names the class that slots replaced.
        with pytest.raises((AttributeError, TypeError)):
            self.node.extra = 1

    def test_still_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.node.amount = 2

    def test_pickle_round_trip(self):
        clone = pickle.loads(pickle.dumps(self.node))
        assert clone == self.node and clone.tags == self.node.tags

    def test_deepcopy_round_trip(self):
        clone = copy.deepcopy(self.node)
        assert clone == self.node and clone.tags == self.node.tags

    def test_replace_round_trip(self):
        assert dataclasses.replace(self.node) == self.node
        assert dataclasses.replace(self.node, sources=(0, 1)).sources == (0, 1)

    def test_equality_and_hash_ignore_tags(self):
        untagged = Node(3, "min", sources=(0, 2))
        assert untagged == self.node
        assert hash(untagged) == hash(self.node)
        assert Node(3, "max", sources=(0, 2)) != self.node

    def test_plan_bytes_unchanged_for_the_80_input_column(self):
        from repro.ir.passes import optimize_program
        from repro.network.compile_plan import compile_plan
        from repro.neuron.response import ResponseFunction
        from repro.neuron.srm0 import SRM0Neuron
        from repro.neuron.srm0_network import build_srm0_network

        rng = random.Random(0)
        neuron = SRM0Neuron.homogeneous(
            80,
            [rng.randint(1, 3) for _ in range(80)],
            base_response=ResponseFunction.piecewise_linear(
                amplitude=2, rise=1, fall=3
            ),
            threshold=3,
        )
        network = build_srm0_network(neuron, name="col-80in")
        assert len(network.nodes) == 29_351
        plan = compile_plan(optimize_program(network)[0])
        assert ndarray_nbytes(plan) == 476_296


class TestNetworkContainer:
    def test_dense_ids_required(self):
        nodes = [Node(0, "input", name="a"), Node(2, "inc", sources=(0,))]
        with pytest.raises(NetworkError, match="dense"):
            Network(nodes, {"y": 0})

    def test_output_reference_checked(self):
        nodes = [Node(0, "input", name="a")]
        with pytest.raises(NetworkError, match="missing node"):
            Network(nodes, {"y": 5})

    def test_depth(self):
        net = build_fig6b()
        assert net.depth() == 3

    def test_consumers(self):
        net = build_fig6b()
        fanout = net.consumers()
        # x3 (id 2) feeds only the lt node.
        assert len(fanout[2]) == 1

    def test_as_function_requires_unique_output(self):
        b = NetworkBuilder()
        a, c = b.inputs("a", "c")
        b.output("p", b.min(a, c))
        b.output("q", b.max(a, c))
        net = b.build()
        with pytest.raises(NetworkError, match="output="):
            net.as_function()
        assert net.as_function(output="p")(3, 1) == 1

    def test_as_function_requires_bound_params(self):
        b = NetworkBuilder()
        x = b.input("x")
        mu = b.param("mu")
        b.output("y", b.gate(x, mu))
        net = b.build()
        with pytest.raises(NetworkError, match="unbound"):
            net.as_function()
        f = net.as_function(params={"mu": INF})
        assert f(3) == 3

    def test_pretty_lists_nodes(self):
        text = build_fig6b().pretty()
        assert "input 'x1'" in text
        assert "output 'y'" in text
