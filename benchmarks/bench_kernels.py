"""Per-kernel batched throughput for the s-t kernel stdlib.

Every registry kernel (:data:`repro.kernels.KERNELS`) plus one composed
three-stage chain is timed through the compiled batch engine
(:mod:`repro.network.compile_plan`) across a batch-size ladder.  Outputs
are checked against the interpreted evaluator before any timing.

The acceptance property (asserted in full mode) is **monotone-or-flat
throughput**: for every kernel, volleys/sec at the largest batch must
stay within 25% of the best batch size on the ladder — i.e. batching
never collapses (the B=1024 cliff class of regression the batched-eval
benchmark pinned, held for the whole kernel library).

Results land in ``BENCH_kernels.json`` (repo root).

Run standalone::

    python benchmarks/bench_kernels.py [--smoke] [--json PATH]

``--smoke`` shrinks the ladder and repeats for CI and skips the
acceptance assertion (timing noise on shared runners).
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time
from pathlib import Path

from repro.kernels import KERNELS, build_kernel, compose, interval_shift
from repro.network.compile_plan import compile_plan, decode_matrix, encode_volleys
from repro.network.generate import random_volley
from repro.network.simulator import evaluate_all_interpreted

BATCHES = (64, 256, 1024)
SMOKE_BATCHES = (16, 64)

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

#: At the largest batch, throughput must stay within this fraction of
#: the ladder's best — "monotone or flat", with headroom for noise.
FLATNESS = 0.75


def composed_chain():
    """A three-stage shift chain — the composition overhead probe."""
    second = interval_shift(2).renamed(
        inputs={"lo": "lo_out", "hi": "hi_out"},
        outputs={"lo_out": "lo2", "hi_out": "hi2"},
        name="mid",
    )
    third = interval_shift(3).renamed(
        inputs={"lo": "lo2", "hi": "hi2"},
        outputs={"lo_out": "lo3", "hi_out": "hi3"},
        name="tail",
    )
    return compose(interval_shift(1), second, third, name="shift-chain")


def bench_models():
    """name -> Network: every registry kernel plus the composed chain."""
    models = {
        name: build_kernel(name).network() for name in KERNELS
    }
    models["composed-chain(3)"] = composed_chain().network()
    return models


def _median_of(repeats, fn):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(network, *, batches, repeats, seed=0):
    """Throughput ladder for one kernel through the batch engine."""
    rng = random.Random(seed)
    arity = len(network.input_names)
    plan = compile_plan(network).warm()
    ladder = []
    for batch in batches:
        volleys = [
            random_volley(arity, rng=rng, silence_probability=0.25)
            for _ in range(batch)
        ]
        matrix = encode_volleys(volleys)
        got = decode_matrix(plan.outputs(matrix)[:8])
        want = []
        for volley in volleys[:8]:
            values = evaluate_all_interpreted(
                network, dict(zip(network.input_names, volley))
            )
            want.append(tuple(values[i] for i in network.outputs.values()))
        assert got == want, f"batch engine != interpreted at B={batch}"
        t_plan = _median_of(repeats, lambda: plan.outputs(matrix))
        ladder.append(batch / t_plan)
    return {"batches": list(batches), "compiled_vps": ladder}


def run(*, smoke=False, repeats=None):
    batches = SMOKE_BATCHES if smoke else BATCHES
    repeats = repeats or (3 if smoke else 11)
    kernels = {}
    for name, network in bench_models().items():
        kernels[name] = {
            "nodes": len(network.nodes),
            "arity": len(network.input_names),
            "results": measure(network, batches=batches, repeats=repeats),
        }
    return {
        "benchmark": "bench_kernels",
        "smoke": smoke,
        "batches": list(batches),
        "kernels": kernels,
    }


def flatness_violations(data):
    """(kernel, ratio) rows breaking the monotone-or-flat bar."""
    violations = []
    for name, entry in data["kernels"].items():
        vps = entry["results"]["compiled_vps"]
        ratio = vps[-1] / max(vps)
        if ratio < FLATNESS:
            violations.append((name, ratio))
    return violations


def report(*, smoke=False, artifact_path=ARTIFACT) -> str:
    data = run(smoke=smoke)
    artifact_path = Path(artifact_path)
    artifact_path.write_text(json.dumps(data, indent=2) + "\n")

    largest = data["batches"][-1]
    lines = [
        "s-t kernel stdlib — batched throughput (volleys/sec), "
        f"ladder {data['batches']}"
    ]
    lines.append(
        f"{'kernel':<22} {'nodes':>5} {'vps@B=' + str(largest):>16} {'flat':>6}"
    )
    for name, entry in data["kernels"].items():
        vps = entry["results"]["compiled_vps"]
        lines.append(
            f"{name:<22} {entry['nodes']:>5} {vps[-1]:>16.0f} "
            f"{vps[-1] / max(vps):>6.2f}"
        )

    if not smoke:
        violations = flatness_violations(data)
        if violations:
            detail = "; ".join(
                f"{name} {ratio:.2f}" for name, ratio in violations
            )
            lines.append(
                f"\nMONOTONE-OR-FLAT VIOLATION(S) (< {FLATNESS}): {detail}"
            )
        else:
            lines.append(
                f"\nmonotone-or-flat holds: every kernel keeps "
                f">= {FLATNESS:.0%} of its best ladder throughput at "
                f"B={largest}"
            )
        assert not violations, f"throughput collapsed with batch: {violations}"
    lines.append(f"\nartifact: {artifact_path}")
    lines.append(
        "\nshape: stdlib kernels are tiny (2-13 blocks), so per-call "
        "dispatch dominates at small batches and throughput grows "
        "roughly linearly until the arena/kernel work saturates; "
        "the accumulator's k-subset min/max lattice is the largest and "
        "benefits most from fused reductions."
    )
    return "\n".join(lines)


# -- pytest-benchmark hooks ---------------------------------------------------

def bench_kernels_accumulator_b1024(benchmark):
    network = bench_models()["accumulator"]
    plan = compile_plan(network).warm()
    rng = random.Random(0)
    matrix = encode_volleys(
        [random_volley(4, rng=rng) for _ in range(1024)]
    )
    out = benchmark(plan.outputs, matrix)
    assert out.shape == (1024, 1)


def bench_kernels_acceptance(benchmark, show):
    # Monotone-or-flat throughput for every kernel.
    data = benchmark.pedantic(run, kwargs={"repeats": 7}, rounds=1, iterations=1)
    violations = flatness_violations(data)
    show(
        f"kernels checked: {len(data['kernels'])}, "
        f"violations: {len(violations)}"
    )
    assert not violations, f"throughput collapsed with batch: {violations}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small ladder, fewer repeats, no acceptance assertion (CI)",
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
