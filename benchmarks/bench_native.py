"""The batch engine's per-family throughput table.

One compiled plan (:mod:`repro.network.compile_plan`) serves every
batch: one fused NumPy kernel per (level, op-kind) bucket over a
node-major int64 arena, with mixed-arity ``min``/``max`` groups padded
to a rectangle by repeating a source.

The table covers five families at B ∈ {1, 64, 1024}: the Fig. 9
synthesized minterm network, the Fig. 12 SRM0 construction, a wider
7-input SRM0 neuron, a deep layered DAG, and the pass-optimized
10-input SRM0 column the served benchmark's narrow workloads use.  The
``mixed`` column marks families whose plan pads a mixed-arity group.
Every cell is the best of repeated samples, in volleys per second;
before timing, the first rows of each batch are checked against the
interpreted evaluator.  Results land in ``BENCH_native.json`` (repo
root) with an ``env`` header naming the machine and software they were
measured on.

Run standalone::

    python benchmarks/bench_native.py [--smoke] [--json PATH]

``--smoke`` shrinks the batch sizes and repeats for CI.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

import numpy as np

from repro.core.table import NormalizedTable
from repro.core.synthesis import synthesize
from repro.ir import ensure_program, lower, optimize_program
from repro.network.compile_plan import (
    INF_I64,
    compile_plan,
    decode_matrix,
    encode_volleys,
)
from repro.network.generate import random_volley
from repro.network.simulator import evaluate_all_interpreted
from repro.neuron.response import ResponseFunction
from repro.neuron.srm0 import SRM0Neuron
from repro.neuron.srm0_network import build_srm0_network
from repro.testing.generators import random_layered_network

from artifact_env import env_header

BATCHES = (1, 64, 1024)
SMOKE_BATCHES = (1, 16)

#: Rows checked against the interpreted evaluator per family and size.
CHECK_ROWS = 16

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_native.json"


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
    column_optimized, _report = optimize_program(lower(column))
    return {
        "fig09-minterm(3x16)": fig09,
        "fig12-srm0(4in)": fig12,
        "srm0-wide(7in)": srm0_wide,
        "layered(8x6x16)": layered,
        "srm0-column(10in,optimized)": column_optimized,
    }


def mixed_arity(program) -> bool:
    """True when some (level, kind) min/max group mixes arities."""
    widths: dict[tuple[int, str], set[int]] = {}
    for node in program.nodes:
        if node.kind in ("min", "max") and node.sources:
            key = (program.levels[node.id], node.kind)
            widths.setdefault(key, set()).add(len(node.sources))
    return any(len(w) > 1 for w in widths.values())


def _interpreted(program, matrix) -> np.ndarray:
    """Reference outputs of the interpreted evaluator, sentinel-encoded."""
    out_ids = list(program.outputs.values())
    rows = []
    for volley in decode_matrix(matrix):
        values = evaluate_all_interpreted(
            program, dict(zip(program.input_names, volley))
        )
        rows.append([min(values[i], INF_I64) for i in out_ids])
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), len(out_ids))


def measure(program, *, batches, samples, seed=0) -> dict:
    """One family's row: volleys/s per batch size."""
    plan = compile_plan(program).warm()
    arity = len(program.input_ids)
    results = {}
    for batch in batches:
        rng = random.Random(seed + batch)
        matrix = encode_volleys(
            [
                random_volley(arity, rng=rng, silence_probability=0.25)
                for _ in range(batch)
            ]
        )
        head = min(batch, CHECK_ROWS)
        np.testing.assert_array_equal(
            plan.outputs(matrix)[:head], _interpreted(program, matrix[:head])
        )
        # Enough calls per sample that one sample lasts a few ms.
        number = max(1, 256 // batch)
        best = float("inf")
        for _ in range(samples):
            start = time.perf_counter()
            for _ in range(number):
                plan.outputs(matrix)
            best = min(best, (time.perf_counter() - start) / number)
        results[str(batch)] = {"numpy_vps": batch / best}
    return results


def run(*, smoke=False, samples=None) -> dict:
    """Measure every family; returns the artifact dict."""
    batches = SMOKE_BATCHES if smoke else BATCHES
    samples = samples or (3 if smoke else 15)
    families = {}
    for name, network in bench_networks().items():
        program = ensure_program(network)
        plan = compile_plan(program)
        families[name] = {
            "nodes": plan.n_nodes,
            "kernels": len(plan.kernels),
            "mixed_arity": mixed_arity(program),
            "results": measure(program, batches=batches, samples=samples),
        }
    return {
        "benchmark": "bench_native",
        "env": env_header(),
        "smoke": smoke,
        "batches": list(batches),
        "families": families,
    }


def report(*, smoke=False, artifact_path=ARTIFACT) -> str:
    data = run(smoke=smoke)
    artifact_path = Path(artifact_path)
    artifact_path.write_text(json.dumps(data, indent=2) + "\n")

    lines = ["Batch engine throughput (volleys/s, best of samples)"]
    header = f"{'family':<28} {'nodes':>6} {'kernels':>8} {'mixed':>6}"
    for batch in data["batches"]:
        header += f" {'B=' + str(batch):>13}"
    lines.append(header)
    for name, entry in data["families"].items():
        line = (
            f"{name:<28} {entry['nodes']:>6} {entry['kernels']:>8} "
            f"{'yes' if entry['mixed_arity'] else 'no':>6}"
        )
        for batch in data["batches"]:
            cell = entry["results"][str(batch)]
            line += f" {cell['numpy_vps']:>13.0f}"
        lines.append(line)
    lines.append(f"\nartifact: {artifact_path}")
    return "\n".join(lines)


# -- pytest-benchmark hooks ---------------------------------------------------

def bench_native_outputs_b1024(benchmark):
    network = bench_networks()["srm0-wide(7in)"]
    plan = compile_plan(network).warm()
    rng = random.Random(0)
    matrix = encode_volleys(
        [random_volley(7, rng=rng) for _ in range(1024)]
    )
    out = benchmark(plan.outputs, matrix)
    assert out.shape == (1024, 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small batches and few samples (CI)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=ARTIFACT,
        help=f"artifact path (default {ARTIFACT.name} at repo root)",
    )
    args = parser.parse_args(argv)
    print(report(smoke=args.smoke, artifact_path=args.json))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
