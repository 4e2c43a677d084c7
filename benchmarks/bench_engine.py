"""The batch engine's per-family throughput table.

One compiled plan (:mod:`repro.network.compile_plan`) serves every
batch: one fused NumPy kernel per (level, op-kind) bucket over a
node-major int64 arena, with mixed-arity ``min``/``max`` groups padded
to a rectangle by repeating a source.  This report measures how that
plan amortizes dispatch over a batch on five families — the Fig. 9
synthesized minterm network, the Fig. 12 SRM0 construction, a wider
7-input SRM0 neuron, a deep layered DAG, and the pass-optimized
10-input SRM0 column the served benchmark's narrow workloads use — at
B ∈ {1, 64, 1024}, against

* ``per-volley``: the public scalar path (``evaluate_vector``), i.e. the
  same plan called with B=1 per volley, and
* ``interpreted``: the pure-Python reference walk
  (``evaluate_all_interpreted``).

Each family's ``mixed arity`` flag says whether its plan pads a
mixed-arity group.  Every cell is the best of interleaved samples, in volleys per
second; before timing, the first rows of each batch are checked against
the interpreted evaluator.

A sixth family, ``srm0-column(80in)`` — the served wide column — is
timed as the serving workers run it: each of its two 328-wire bitonic
sorters lowered to rank rows (:func:`repro.ir.sorters.group_sorters`)
and run as one sort kernel, against the comparator-level plan of the
same column (both pass-optimized).  Every batch's outputs of the two
plans must be equal, and its first rows must match the interpreted
evaluator.

Acceptance (full mode, every family): at B=1024 the plan is **≥ 10×**
per-volley evaluation, and B=1024 keeps **≥ 0.75** of the family's peak
throughput (scaling is monotone-or-flat: growing the batch may stop
paying but must never fall off a cliff); on the wide column the sort
kernels are **≥ 2×** the comparator plan at every batch.  Results land
in ``BENCH_engine.json`` at the repo root.

Run standalone::

    python benchmarks/bench_engine.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

from repro.core.table import NormalizedTable
from repro.core.synthesis import synthesize
from repro.ir import optimize_program
from repro.ir.sorters import group_sorters
from repro.network.compile_plan import (
    INF_I64,
    compile_plan,
    encode_volleys,
)
from repro.network.generate import random_volley
from repro.network.simulator import evaluate_all_interpreted, evaluate_vector
from repro.neuron.response import ResponseFunction
from repro.neuron.srm0 import SRM0Neuron
from repro.neuron.srm0_network import build_srm0_network
from repro.testing.generators import random_layered_network

from artifact_env import best_of, main, write_artifact

BATCHES = (1, 64, 1024)
SMOKE_BATCHES = (1, 64)

#: Rows checked against the interpreted evaluator per family and size.
CHECK_ROWS = 16

#: Full-mode bounds, held by every family at the largest batch.
MIN_SPEEDUP_VS_PER_VOLLEY = 10.0
#: 0.75 absorbs scheduler noise on shared runners.
MIN_FRACTION_OF_PEAK = 0.75

#: The served wide column, sort kernels vs comparators.
SORTER_FAMILY = "srm0-column(80in)"
#: Full-mode bound on the wide column, held at every batch.
MIN_SORT_KERNEL_SPEEDUP = 2.0

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def bench_networks():
    """The families the table is stated over."""
    table = NormalizedTable.random(3, window=3, n_rows=16, rng=random.Random(4))
    fig09 = synthesize(table)
    fig12 = build_srm0_network(
        SRM0Neuron.homogeneous(
            4,
            [2, 1, 3, 2],
            base_response=ResponseFunction.biexponential(amplitude=3, t_max=8),
            threshold=6,
        )
    )
    srm0_wide = build_srm0_network(
        SRM0Neuron.homogeneous(
            7,
            [2, 1, 3, 2, 1, 2, 3],
            base_response=ResponseFunction.biexponential(amplitude=3, t_max=8),
            threshold=8,
        )
    )
    layered = random_layered_network(
        seed=3, n_inputs=8, n_layers=6, width=16, n_outputs=4
    )
    # The served narrow column: seeded weights, piecewise-linear response.
    rng = random.Random(0)
    column = build_srm0_network(
        SRM0Neuron.homogeneous(
            10,
            [rng.randint(1, 3) for _ in range(10)],
            base_response=ResponseFunction.piecewise_linear(
                amplitude=2, rise=1, fall=3
            ),
            threshold=3,
        )
    )
    column_optimized, _report = optimize_program(column)
    return {
        "fig09-minterm(3x16)": fig09,
        "fig12-srm0(4in)": fig12,
        "srm0-wide(7in)": srm0_wide,
        "layered(8x6x16)": layered,
        "srm0-column(10in,optimized)": column_optimized,
    }


def wide_column():
    """The served 80-input column as ``(sort-kernel, comparator)`` programs."""
    rng = random.Random(0)
    column = build_srm0_network(
        SRM0Neuron.homogeneous(
            80,
            [rng.randint(1, 3) for _ in range(80)],
            base_response=ResponseFunction.piecewise_linear(
                amplitude=2, rise=1, fall=3
            ),
            threshold=3,
        )
    )
    kernel, _report = optimize_program(group_sorters(column))
    comparators, _report = optimize_program(column)
    return kernel, comparators


def measure_sort_kernel(kernel, comparators, *, batches, samples, seed=0) -> list:
    """The wide column's rows: sort-kernel and comparator-level volleys/s."""
    plans = compile_plan(kernel).warm(), compile_plan(comparators).warm()
    arity = len(kernel.input_ids)
    rows = []
    for batch in batches:
        rng = random.Random(seed + batch)
        volleys = [
            random_volley(arity, max_time=1000, rng=rng, silence_probability=0.2)
            for _ in range(batch)
        ]
        matrix = encode_volleys(volleys)
        got = plans[0].outputs(matrix)
        np.testing.assert_array_equal(got, plans[1].outputs(matrix))
        np.testing.assert_array_equal(
            got[:2], _interpreted_outputs(comparators, volleys[:2])
        )
        number = max(1, 64 // batch)
        t_kernel, t_comparators = best_of(
            samples,
            *(lambda plan=plan: [plan.outputs(matrix) for _ in range(number)]
              for plan in plans),
        )
        rows.append(
            {
                "batch": batch,
                "kernel_vps": batch * number / t_kernel,
                "comparator_vps": batch * number / t_comparators,
                "speedup": t_comparators / t_kernel,
            }
        )
    return rows


def mixed_arity(program) -> bool:
    """True when some (level, kind) min/max group mixes arities."""
    widths: dict[tuple[int, str], set[int]] = {}
    for node in program.nodes:
        if node.kind in ("min", "max") and node.sources:
            key = (program.levels[node.id], node.kind)
            widths.setdefault(key, set()).add(len(node.sources))
    return any(len(w) > 1 for w in widths.values())


def _interpreted(program, volley):
    """The interpreted evaluator's value of every node for one volley."""
    return evaluate_all_interpreted(
        program, dict(zip(program.input_names, volley))
    )


def _interpreted_outputs(program, volleys) -> np.ndarray:
    """Reference outputs of the interpreted evaluator, sentinel-encoded."""
    out_ids = list(program.outputs.values())
    rows = []
    for volley in volleys:
        values = _interpreted(program, volley)
        rows.append([min(values[i], INF_I64) for i in out_ids])
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), len(out_ids))


def measure(program, *, batches, samples, slow_samples, seed=0) -> list:
    """One family's rows: batched, per-volley and interpreted volleys/s."""
    plan = compile_plan(program).warm()
    arity = len(program.input_ids)
    rows = []
    for batch in batches:
        rng = random.Random(seed + batch)
        volleys = [
            random_volley(arity, rng=rng, silence_probability=0.25)
            for _ in range(batch)
        ]
        matrix = encode_volleys(volleys)
        head = min(batch, CHECK_ROWS)
        np.testing.assert_array_equal(
            plan.outputs(matrix)[:head],
            _interpreted_outputs(program, volleys[:head]),
        )

        # Enough calls per batched sample that one sample lasts a few ms.
        number = max(1, 256 // batch)

        def batched():
            for _ in range(number):
                plan.outputs(matrix)

        # The two Python paths are slow, so they share only the first
        # slow_samples rounds; the batched plan runs the rest alone.
        t_batched, t_scalar, t_interp = best_of(
            slow_samples,
            batched,
            lambda: [evaluate_vector(program, v) for v in volleys],
            lambda: [_interpreted(program, v) for v in volleys],
        )
        t_batched = min(t_batched, *best_of(samples - slow_samples, batched))
        t_batched /= number
        rows.append(
            {
                "batch": batch,
                "batched_vps": batch / t_batched,
                "per_volley_vps": batch / t_scalar,
                "interpreted_vps": batch / t_interp,
                "speedup_vs_per_volley": t_scalar / t_batched,
                "speedup_vs_interpreted": t_interp / t_batched,
            }
        )
    return rows


def run(*, smoke=False) -> dict:
    """Measure every family; returns the artifact dict."""
    batches = SMOKE_BATCHES if smoke else BATCHES
    families = {}
    for name, program in bench_networks().items():
        plan = compile_plan(program)
        families[name] = {
            "nodes": plan.n_nodes,
            "kernels": len(plan.kernels),
            "mixed_arity": mixed_arity(program),
            "results": measure(
                program,
                batches=batches,
                samples=3 if smoke else 15,
                slow_samples=1 if smoke else 3,
            ),
        }
    kernel, comparators = wide_column()
    kernel_plan, comparator_plan = compile_plan(kernel), compile_plan(comparators)
    sorters = {
        SORTER_FAMILY: {
            "kernel_nodes": kernel_plan.n_nodes,
            "kernel_kernels": len(kernel_plan.kernels),
            "comparator_nodes": comparator_plan.n_nodes,
            "comparator_kernels": len(comparator_plan.kernels),
            "results": measure_sort_kernel(
                kernel, comparators, batches=batches, samples=3 if smoke else 15
            ),
        }
    }
    return {
        "benchmark": "bench_engine",
        "smoke": smoke,
        "batches": list(batches),
        "min_speedup_vs_per_volley": MIN_SPEEDUP_VS_PER_VOLLEY,
        "min_fraction_of_peak": MIN_FRACTION_OF_PEAK,
        "min_sort_kernel_speedup": MIN_SORT_KERNEL_SPEEDUP,
        "families": families,
        "sort_kernel": sorters,
    }


def gate_failures(entry) -> list[str]:
    """The full-mode bounds *entry*'s rows break, as report lines."""
    rows = entry["results"]
    top = rows[-1]
    failures = []
    if top["speedup_vs_per_volley"] < MIN_SPEEDUP_VS_PER_VOLLEY:
        failures.append(
            f"speedup {top['speedup_vs_per_volley']:.1f}x over per-volley "
            f"at B={top['batch']} is below the "
            f"{MIN_SPEEDUP_VS_PER_VOLLEY:.0f}x bound"
        )
    peak = max(row["batched_vps"] for row in rows)
    if top["batched_vps"] < MIN_FRACTION_OF_PEAK * peak:
        failures.append(
            f"batched throughput fell off a cliff at B={top['batch']} "
            f"({top['batched_vps']:.0f} v/s vs peak {peak:.0f} v/s)"
        )
    return failures


def report(*, smoke=False, artifact_path=ARTIFACT) -> tuple[str, bool]:
    data = run(smoke=smoke)
    artifact_path = write_artifact(artifact_path, data)

    ok = True
    lines = ["Batch engine throughput (volleys/s, best of interleaved samples)"]
    for name, entry in data["families"].items():
        lines.append(
            f"\n{name}: {entry['nodes']} nodes, {entry['kernels']} kernels, "
            f"mixed arity {'yes' if entry['mixed_arity'] else 'no'}"
        )
        lines.append(
            f"{'B':>6} {'batched':>12} {'per-volley':>12} "
            f"{'interpreted':>12} {'vs per-vol':>11} {'vs interp':>10}"
        )
        for row in entry["results"]:
            lines.append(
                f"{row['batch']:>6} {row['batched_vps']:>12.0f} "
                f"{row['per_volley_vps']:>12.0f} "
                f"{row['interpreted_vps']:>12.0f} "
                f"{row['speedup_vs_per_volley']:>10.1f}x "
                f"{row['speedup_vs_interpreted']:>9.1f}x"
            )
        if not smoke:
            for failure in gate_failures(entry):
                ok = False
                lines.append(f"  FAIL: {failure}")
    for name, entry in data["sort_kernel"].items():
        lines.append(
            f"\n{name}: sort kernels {entry['kernel_nodes']} nodes, "
            f"{entry['kernel_kernels']} kernels; comparators "
            f"{entry['comparator_nodes']} nodes, "
            f"{entry['comparator_kernels']} kernels"
        )
        lines.append(f"{'B':>6} {'sort kernel':>12} {'comparators':>12} {'speedup':>8}")
        for row in entry["results"]:
            lines.append(
                f"{row['batch']:>6} {row['kernel_vps']:>12.0f} "
                f"{row['comparator_vps']:>12.0f} {row['speedup']:>7.1f}x"
            )
            if not smoke and row["speedup"] < MIN_SORT_KERNEL_SPEEDUP:
                ok = False
                lines.append(
                    f"  FAIL: sort kernels {row['speedup']:.1f}x the comparator "
                    f"plan at B={row['batch']}, below the "
                    f"{MIN_SORT_KERNEL_SPEEDUP:.0f}x bound"
                )
    lines.append(f"\nartifact: {artifact_path}")
    lines.append(
        "\nshape: one fused kernel per (level, kind) amortized over the "
        "batch; per-volley dispatch cost vanishes and throughput grows "
        "until the arena work saturates."
    )
    return "\n".join(lines), ok


# -- pytest-benchmark hooks ---------------------------------------------------

def _outputs_b1024(benchmark, family):
    program = bench_networks()[family]
    plan = compile_plan(program).warm()
    rng = random.Random(0)
    arity = len(program.input_ids)
    matrix = encode_volleys(
        [random_volley(arity, rng=rng) for _ in range(1024)]
    )
    out = benchmark(plan.outputs, matrix)
    assert out.shape == (1024, 1)


def bench_wide_batched_evaluation_b1024(benchmark):
    _outputs_b1024(benchmark, "srm0-wide(7in)")


def bench_batched_evaluation_b1024(benchmark):
    _outputs_b1024(benchmark, "fig12-srm0(4in)")


def bench_per_volley_evaluation_x64(benchmark):
    network = bench_networks()["fig12-srm0(4in)"]
    rng = random.Random(0)
    volleys = [random_volley(4, rng=rng) for _ in range(64)]
    result = benchmark(lambda: [evaluate_vector(network, v) for v in volleys])
    assert len(result) == 64


def bench_speedup_acceptance(benchmark, show):
    # The acceptance claim itself: >= 10x at the largest batch on every
    # family (run under --benchmark-only; --smoke in CI uses the CLI).
    data = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, entry in data["families"].items():
        top = entry["results"][-1]
        show(f"{name}: {top['speedup_vs_per_volley']:.1f}x at B={top['batch']}")
        assert top["speedup_vs_per_volley"] >= MIN_SPEEDUP_VS_PER_VOLLEY, name


if __name__ == "__main__":
    raise SystemExit(main(report, ARTIFACT, __doc__))
