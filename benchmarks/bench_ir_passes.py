"""IR optimizer: node reduction, optimize time, compiled-engine payoff.

The optimizer lives in :mod:`repro.ir.passes` — one value-numbering
sweep followed by dce, run once per program and shared by all four
backends through the compiled plan each program owns.  This report
prices that claim on two network families:

* **redundant** — synthesis output that carries deliberate redundancy
  (Theorem 1 minterm forms, SRM0 sorting-network columns up to a
  40-input one whose bitonic sorter is deep): the optimizer must shrink
  them, and ``evaluate_batch`` is timed on the raw and the optimized
  network;
* **minimal** — already-optimal networks the optimizer cannot improve:
  node counts must not change, and the optimizer must hand back the
original network itself, so the two share one compiled plan and
``evaluate_batch`` cannot slow down.

For the redundant networks it also prices the served program's build,
``optimize_program(group_sorters(network))``
(:mod:`repro.ir.sorters`), which the serving registry runs once per
registered model: each recognized sorting network becomes rank rows
before the sweep, so the sweep sees a fraction of the nodes.  Both
paths are timed from a fresh network (the grouping memo is per
network), as the registry parses each network it registers.

Per-step node reductions and optimize and batch timings land in
``BENCH_ir_passes.json`` at the repo root, under the shared ``env``
header.

Run standalone::

    python benchmarks/bench_ir_passes.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import random
import statistics
from pathlib import Path
from time import perf_counter

from repro.core.synthesis import synthesize
from repro.core.table import NormalizedTable
from repro.ir import optimize_program
from repro.ir.sorters import group_sorters
from repro.network import Network, NetworkBuilder, compile_plan, evaluate_batch
from repro.network.generate import random_volley
from repro.neuron.response import ResponseFunction
from repro.neuron.srm0 import SRM0Neuron
from repro.neuron.srm0_network import build_srm0_network

from artifact_env import best_of, main, write_artifact

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_ir_passes.json"

#: On minimal networks the optimizer must be a no-op, so the optimized
#: batch may not regress past timing noise.
MAX_MINIMAL_RATIO = 1.10
#: Full-mode ratio gates run as many interleaved best-of rounds as fit
#: in about this many seconds of timed calls, at least
#: :data:`MIN_GATE_ROUNDS` and at most :data:`MAX_GATE_ROUNDS`.  On a
#: shared two-core box the machine has slow and fast spells; a
#: best-of-30 over sub-millisecond batches can miss the fast spell on
#: one side only, and read 1.28 to 1.36 on a ratio whose two sides run
#: the same plan.  The round cost is the median of three warm rounds,
#: so one slow spell cannot cut the count; the floor is the ~75 rounds
#: at which the 40-input column's gate held over 12 full runs (it failed
#: once, at 1.105, in a run sized to 30).
GATE_BUDGET_S = 4.0
MIN_GATE_ROUNDS = 75
MAX_GATE_ROUNDS = 600
#: Full-mode batch of the minimal gate (both sides share one plan, so
#: a larger batch only steadies the ratio).
MINIMAL_BATCH = 1024


def redundant_networks():
    """Synthesis output with deliberate, optimizer-removable redundancy."""
    table = NormalizedTable.random(3, window=3, n_rows=12, rng=random.Random(7))
    minterm = synthesize(table)
    neuron = SRM0Neuron.homogeneous(
        3,
        [2, 1, 3],
        base_response=ResponseFunction.piecewise_linear(
            amplitude=2, rise=1, fall=3
        ),
        threshold=4,
    )
    column = build_srm0_network(neuron)
    rng = random.Random(0)
    wide = SRM0Neuron.homogeneous(
        40,
        [rng.randint(1, 3) for _ in range(40)],
        base_response=ResponseFunction.piecewise_linear(
            amplitude=2, rise=1, fall=3
        ),
        threshold=3,
    )
    return {
        "minterm(3x12)": minterm,
        "srm0-column(3in)": column,
        "srm0-column(40in)": build_srm0_network(wide),
    }


def minimal_networks():
    """Already-optimal structures the optimizer must leave alone."""
    b = NetworkBuilder("diamond")
    x, y = b.input("x"), b.input("y")
    b.output("z", b.lt(b.min(x, y), b.max(x, y)))
    diamond = b.build()

    c = NetworkBuilder("delay-line")
    v = c.input("v")
    c.output("w", c.inc(v, 9))
    return {"diamond": diamond, "delay-line": c.build()}


def _volleys(network, batch, *, seed):
    rng = random.Random(seed)
    arity = len(network.input_names)
    return [
        random_volley(arity, rng=rng, silence_probability=0.25)
        for _ in range(batch)
    ]


def _gate_rounds(repeats, budget_s, *fns):
    """Best-of rounds for a ratio gate; warms each of *fns* first.

    *budget_s* 0 keeps *repeats* (smoke mode).
    """
    for fn in fns:
        fn()
    if not budget_s:
        return repeats
    per_round = []
    for _ in range(3):
        start = perf_counter()
        for fn in fns:
            fn()
        per_round.append(perf_counter() - start)
    rounds = int(budget_s / statistics.median(per_round))
    return max(repeats, MIN_GATE_ROUNDS, min(MAX_GATE_ROUNDS, rounds))


def _optimize(network):
    """The optimized program, its report, and the best-of-3 optimize ms."""
    (seconds,) = best_of(3, lambda: optimize_program(network))
    program, report = optimize_program(network)
    return program, report, seconds * 1e3


def _load_paths(network):
    """Best-of-3 ms of both load paths from a fresh network, and the
    grouped path's node count."""

    def fresh():
        return Network(network.nodes, network.outputs, name=network.name)

    comparators_s, grouped_s = best_of(
        3,
        lambda: optimize_program(fresh()),
        lambda: optimize_program(group_sorters(fresh())),
    )
    grouped, _report = optimize_program(group_sorters(fresh()))
    return {
        "comparators_ms": comparators_s * 1e3,
        "grouped_ms": grouped_s * 1e3,
        "grouped_nodes": len(grouped.nodes),
        "rank_rows": len(grouped.rank_ids),
    }


def measure_redundant(network, *, batch, repeats, budget_s=0.0, seed=0):
    """Reduction accounting plus raw-vs-optimized batch timing."""
    program, report, optimize_ms = _optimize(network)
    volleys = _volleys(network, batch, seed=seed)
    fns = (
        lambda: evaluate_batch(network, volleys),
        lambda: evaluate_batch(program, volleys),
    )
    rounds = _gate_rounds(repeats, budget_s, *fns)  # warms the plans
    t_raw, t_opt = best_of(rounds, *fns)
    return {
        "nodes_before": len(network.nodes),
        "nodes_after": len(program.nodes),
        "removed_by_pass": report.by_pass(),
        "optimize_ms": optimize_ms,
        "batch": batch,
        "rounds": rounds,
        "raw_ms": t_raw * 1e3,
        "optimized_ms": t_opt * 1e3,
        "speedup_vs_raw": t_raw / t_opt if t_opt else float("inf"),
        "load_path": _load_paths(network),
    }


def measure_minimal(network, *, batch, repeats, budget_s=0.0, seed=1):
    """The no-op guarantee: same structure, shared plan, no slowdown."""
    program, report, optimize_ms = _optimize(network)
    volleys = _volleys(network, batch, seed=seed)
    shares_plan = compile_plan(network) is compile_plan(program)
    fns = (
        lambda: evaluate_batch(network, volleys),
        lambda: evaluate_batch(program, volleys),
    )
    rounds = _gate_rounds(repeats, budget_s, *fns)  # warms the plan
    t_raw, t_opt = best_of(rounds, *fns)
    return {
        "nodes_before": len(network.nodes),
        "nodes_after": len(program.nodes),
        "removed": report.removed,
        "optimize_ms": optimize_ms,
        "shares_compiled_plan": shares_plan,
        "batch": batch,
        "rounds": rounds,
        "raw_ms": t_raw * 1e3,
        "optimized_ms": t_opt * 1e3,
        "ratio_vs_raw": t_opt / t_raw if t_raw else float("inf"),
    }


def run(*, smoke=False, repeats=None):
    batch = 64 if smoke else 256
    repeats = repeats or (5 if smoke else 30)
    budget_s = 0.0 if smoke else GATE_BUDGET_S
    redundant = {
        name: measure_redundant(net, batch=batch, repeats=repeats, budget_s=budget_s)
        for name, net in redundant_networks().items()
    }
    minimal = {
        name: measure_minimal(
            net,
            batch=batch if smoke else MINIMAL_BATCH,
            repeats=repeats,
            budget_s=budget_s,
        )
        for name, net in minimal_networks().items()
    }
    return {
        "benchmark": "bench_ir_passes",
        "smoke": smoke,
        "batch": batch,
        "max_minimal_ratio": MAX_MINIMAL_RATIO,
        "redundant": redundant,
        "minimal": minimal,
    }


def report(*, smoke=False, artifact_path=ARTIFACT) -> tuple[str, bool]:
    data = run(smoke=smoke)
    artifact_path = write_artifact(artifact_path, data)

    ok = True
    lines = ["IR optimizer — node reduction and evaluate_batch payoff"]
    lines.append("\nredundant networks (optimizer must shrink them):")
    lines.append(
        f"{'network':<20} {'nodes':>13} {'optimize':>10} {'raw':>9} "
        f"{'optimized':>10} {'speedup':>8}"
    )
    for name, row in data["redundant"].items():
        lines.append(
            f"{name:<20} {row['nodes_before']:>5} -> {row['nodes_after']:<5} "
            f"{row['optimize_ms']:>8.1f}ms "
            f"{row['raw_ms']:>8.3f} {row['optimized_ms']:>9.3f}ms "
            f"{row['speedup_vs_raw']:>7.2f}x"
        )
        if row["nodes_after"] >= row["nodes_before"]:
            ok = False
            lines.append(f"  FAIL: optimizer did not shrink {name}")
    lines.append("\nserved-program build from a fresh network (sorters grouped first):")
    lines.append(
        f"{'network':<20} {'comparators':>12} {'grouped':>10} {'nodes':>7} "
        f"{'rank rows':>9}"
    )
    for name, row in data["redundant"].items():
        load = row["load_path"]
        lines.append(
            f"{name:<20} {load['comparators_ms']:>10.1f}ms "
            f"{load['grouped_ms']:>8.1f}ms {load['grouped_nodes']:>7} "
            f"{load['rank_rows']:>9}"
        )
    lines.append("\nminimal networks (optimizer must be a no-op):")
    for name, row in data["minimal"].items():
        lines.append(
            f"{name:<20} {row['nodes_before']:>4} -> {row['nodes_after']:<4} "
            f"shared-plan={row['shares_compiled_plan']} "
            f"ratio={row['ratio_vs_raw']:.2f}x"
        )
        if row["removed"] != 0 or not row["shares_compiled_plan"]:
            ok = False
            lines.append(f"  FAIL: optimizer was not a no-op on {name}")
        if not smoke and row["ratio_vs_raw"] > MAX_MINIMAL_RATIO:
            ok = False
            lines.append(
                f"  FAIL: optimized batch regressed {row['ratio_vs_raw']:.2f}x "
                f"on {name} (bound {MAX_MINIMAL_RATIO:.2f}x)"
            )
    lines.append(f"\nartifact: {artifact_path}")
    return "\n".join(lines), ok


if __name__ == "__main__":
    raise SystemExit(main(report, ARTIFACT, __doc__))
