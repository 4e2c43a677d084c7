"""The optimizer: the sweep's rewrite rules, idempotence, provenance."""

import random

import pytest

from repro.core.value import INF, Infinity
from repro.ir import optimize_program
from repro.ir.passes import _NEVER, _simplify
from repro.network import NetworkBuilder, evaluate_all_interpreted
from repro.network.blocks import Node
from repro.network.graph import Network, same_structure
from repro.neuron.response import ResponseFunction
from repro.neuron.srm0 import SRM0Neuron
from repro.neuron.srm0_network import build_srm0_network
from repro.testing import generate_case


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


def _swept(program):
    """The sweep's whole row table, dead rows and all, as a network."""
    rw = _simplify(program, None)
    outputs = {
        name: rw.never_wire() if rw.result[old] == _NEVER else rw.result[old]
        for name, old in program.outputs.items()
    }
    nodes = tuple(Node(i, *row) for i, row in enumerate(rw.rows))
    return Network(nodes, outputs)


def _outputs(program, inputs, params=None):
    values = evaluate_all_interpreted(program, inputs, params=params)
    return {name: values[nid] for name, nid in program.outputs.items()}


class TestIndividualPasses:
    """One rewrite rule of the sweep (or dce) per test."""

    def test_duplicate_inc_merges(self):
        b = NetworkBuilder("twins")
        x = b.input("x")
        b.output("a", b.inc(x, 2))
        b.output("b", b.inc(x, 2))
        program, report = optimize_program(b.build())
        assert program.outputs["a"] == program.outputs["b"]
        assert program.size == 1
        assert report.by_pass() == {"simplify": 1, "dce": 0}

    def test_dce_alone_strips_unobserved_nodes(self):
        b = NetworkBuilder("dead")
        x = b.input("x")
        b.inc(x, 5)  # never observed
        b.output("y", b.inc(x, 1))
        program, report = optimize_program(b.build())
        assert program.size == 1
        assert report.removed == 1

    def test_canonicalize_alone_folds_lt_x_x(self):
        b = NetworkBuilder("race")
        x = b.input("x")
        b.output("y", b.lt(x, x))
        program, _ = optimize_program(b.build())
        assert isinstance(_outputs(program, {"x": 3})["y"], Infinity)

    def test_fuse_inc_alone_collapses_chains(self):
        b = NetworkBuilder("chain")
        x = b.input("x")
        b.output("y", b.inc(b.inc(b.inc(x, 1), 2), 3))
        program, _ = optimize_program(b.build())
        assert program.size == 1
        assert program.nodes[1].amount == 6

    def test_min_max_dedupe_sort_and_collapse(self):
        b = NetworkBuilder("lattice")
        x, y = b.input("x"), b.input("y")
        b.output("m", b.min(y, x, y))
        b.output("n", b.min(x, y))    # same set, other order: merges
        b.output("w", b.max(x, x))    # one distinct source: a wire
        program, _ = optimize_program(b.build())
        assert program.outputs["m"] == program.outputs["n"]
        assert program.nodes[program.outputs["m"]].sources == (0, 1)
        assert program.outputs["w"] == program.input_ids["x"]

    def test_never_is_absorbed(self):
        b = NetworkBuilder("never")
        x, y = b.input("x"), b.input("y")
        never = b.min()  # the lattice top ∞
        b.output("min", b.min(x, never))      # min(x, ∞) = x
        b.output("pass", b.lt(y, never))      # lt(y, ∞) = y
        b.output("max", b.max(x, b.inc(never, 4)))  # max(x, ∞) = ∞
        program, _ = optimize_program(b.build())
        assert program.outputs["min"] == program.input_ids["x"]
        assert program.outputs["pass"] == program.input_ids["y"]
        assert isinstance(_outputs(program, {"x": 1, "y": 2})["max"], Infinity)
        assert program.size == 1  # only the shared never wire

    def test_fold_consts_folds_const_zero_sources(self):
        b = NetworkBuilder("folds")
        x = b.input("x")
        zero = b.max()  # the constant 0
        b.output("m", b.min(x, zero))   # min(x, 0) = 0
        b.output("r", b.lt(x, zero))    # lt(x, 0) never fires
        program, _ = optimize_program(b.build())
        out = _outputs(program, {"x": 4})
        assert out["m"] == 0
        assert isinstance(out["r"], Infinity)

    def test_known_values_fold_outright(self):
        b = NetworkBuilder("known")
        x = b.input("x")
        zero = b.max()
        late = b.inc(zero, 5)
        b.output("hi", b.max(b.inc(zero, 3), late))  # max(3, 5) is `late`
        b.output("lo", b.lt(b.inc(zero, 3), late))   # 3 < 5: the 3 wire
        b.output("x", b.max(x, zero, zero))          # max drops 0 sources
        program, _ = optimize_program(b.build())
        out = _outputs(program, {"x": 9})
        assert out == {"hi": 5, "lo": 3, "x": 9}
        assert program.outputs["x"] == program.input_ids["x"]
        assert {n.kind for n in program.nodes} == {"input", "max", "inc"}

    def test_param_specialization_requires_binding(self):
        b = NetworkBuilder("gated")
        x = b.input("x")
        mu = b.param("mu")
        b.output("y", b.max(x, mu))
        enabled, _ = optimize_program(b.build(), params={"mu": INF})
        # max with a known-INF source is never.
        assert isinstance(
            _outputs(enabled, {"x": 2}, params={"mu": INF})["y"], Infinity
        )
        passing, _ = optimize_program(b.build(), params={"mu": 0})
        assert _outputs(passing, {"x": 2}, params={"mu": 0})["y"] == 2

    def test_unchanged_program_is_returned_as_is(self):
        b = NetworkBuilder("diamond")
        x, y = b.input("x"), b.input("y")
        b.output("z", b.lt(b.min(x, y), b.max(x, y)))
        program = b.build()
        optimized, report = optimize_program(program)
        assert optimized is program
        assert report.removed == 0


def _never_consumers():
    """Wires that fold to never feeding each consumer kind."""
    shapes = {
        "max(x, lt(x, z))": lambda b, x, w, r: b.max(x, r),
        "inc(lt(x, z), 1)": lambda b, x, w, r: b.inc(r, 1),
        "min(w, lt(x, z))": lambda b, x, w, r: b.min(w, r),
        "lt(lt(x, z), w)": lambda b, x, w, r: b.lt(r, w),
    }
    for label, shape in shapes.items():
        b = NetworkBuilder(label)
        x, w = b.input("x"), b.input("w")
        z = b.max()  # the constant 0: lt(x, z) never fires
        b.output("y", shape(b, x, w, b.lt(x, z)))
        yield pytest.param(b.build(), id=label)
    yield pytest.param(generate_case(378).network, id="conformance-378")


@pytest.mark.parametrize("network", _never_consumers())
def test_folded_never_wire_feeds_its_consumers(network):
    program, _ = optimize_program(network)
    rng = random.Random(0)
    for _ in range(8):
        inputs = {
            name: rng.choice([0, 1, 3, 7, INF]) for name in network.input_names
        }
        raw = evaluate_all_interpreted(network, inputs)
        assert _outputs(program, inputs) == {
            name: raw[nid] for name, nid in network.outputs.items()
        }


def test_one_sweep_reaches_the_fixpoint_on_a_sorting_network():
    # The 40-input SRM0 column: its Fig. 10 bitonic sorter is deep, and
    # each stage's merges only show up once the stage before is merged.
    once, _ = optimize_program(_e2e_column(40))
    assert len(once.nodes) <= 7700
    twice, report = optimize_program(once)
    assert same_structure(once, twice)
    assert report.removed == 0


@pytest.mark.parametrize(
    "n_inputs, counts, fingerprint",
    [
        (10, (1681, 891, 886), "bd596acf4e2f7a5e"),
        (40, (11841, 7705, 7700), "b3578bd1362e723b"),
    ],
)
def test_e2e_columns_optimize_to_their_golden_programs(
    n_inputs, counts, fingerprint
):
    # simplified_nodes is the count before dead rows are dropped.
    network = _e2e_column(n_inputs)
    program, report = optimize_program(network)
    assert (
        report.before_nodes, report.simplified_nodes, report.after_nodes
    ) == counts
    assert program.fingerprint().startswith(fingerprint)
    # Every original node is represented at most once, by a live node.
    roots = [root for ids in program.provenance.values() for root in ids]
    assert len(roots) == len(set(roots))
    assert set(program.provenance) == set(range(len(program.nodes)))


class TestReport:
    def test_report_accounting(self):
        b = NetworkBuilder("twins")
        x = b.input("x")
        b.output("a", b.inc(x, 2))
        b.output("b", b.inc(x, 2))
        program, report = optimize_program(b.build())
        assert report.before_nodes - report.after_nodes == report.removed
        assert report.removed == 1
        assert sum(report.by_pass().values()) == report.removed
        assert "pipeline:" in report.describe()
        assert str(report) == report.describe()


class TestIdempotence:
    """optimize(optimize(p)) == optimize(p), over seeded random cases."""

    @pytest.mark.parametrize("seed", range(12))
    def test_pipeline_is_idempotent(self, seed):
        case = generate_case(seed, smoke=True)
        once, _ = optimize_program(case.network)
        twice, report = optimize_program(once)
        assert same_structure(once, twice)
        assert report.removed == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_single_passes_idempotent_on_own_output(self, seed):
        # The sweep alone, dead nodes and all, is already a fixpoint.
        once = _swept(generate_case(seed, smoke=True).network)
        assert same_structure(once, _swept(once))


class TestProvenance:
    """Every provenance root fires exactly when its optimized node does."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fire_time_invariant(self, seed):
        case = generate_case(seed, smoke=True)
        program, _ = optimize_program(case.network)
        params = case.params or None
        names = case.network.input_names
        for volley in case.volleys[:4]:
            inputs = dict(zip(names, volley))
            original = evaluate_all_interpreted(
                case.network, inputs, params=params
            )
            optimized = evaluate_all_interpreted(program, inputs, params=params)
            for node_id, roots in program.provenance.items():
                for root in roots:
                    assert original[root] == optimized[node_id]

    def test_semantics_preserved_end_to_end(self):
        for seed in range(8):
            case = generate_case(seed, smoke=True)
            program, _ = optimize_program(case.network)
            params = case.params or None
            names = case.network.input_names
            for volley in case.volleys[:4]:
                inputs = dict(zip(names, volley))
                assert _outputs(case.network, inputs, params) == _outputs(
                    program, inputs, params
                )
