"""IR pass pipeline: node reduction and compiled-engine payoff.

The optimizer now lives in :mod:`repro.ir.passes` — one pipeline
(canonicalize, fold-consts, fuse-inc, cse, dce) run once per program and
shared by all four backends through the fingerprint-keyed plan cache.
This report prices that claim on two network families:

* **redundant** — synthesis output that carries deliberate redundancy
  (Theorem 1 minterm forms, SRM0 sorting-network columns): the pipeline
  must shrink them substantially, and ``evaluate_batch`` on the
  pass-optimized program must at least match the legacy
  ``Network`` → compile path (the same program raised back with
  ``program.to_network()`` — the comparison pins the IR plumbing's
  overhead to zero);
* **minimal** — already-optimal networks the passes cannot improve:
  node counts must not change, and the optimized program must share the
  original's compiled plan (same fingerprint), so ``evaluate_batch``
  cannot slow down.

Per-pass node reductions, batch timings, and the plan-cache record land
in ``BENCH_ir_passes.json`` at the repo root.

Run standalone::

    python benchmarks/bench_ir_passes.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

from repro import runtime
from repro.core.synthesis import synthesize
from repro.core.table import NormalizedTable
from repro.ir import lower, optimize_program
from repro.network import NetworkBuilder, compile_plan, evaluate_batch
from repro.network.generate import random_volley
from repro.neuron.response import ResponseFunction
from repro.neuron.srm0 import SRM0Neuron
from repro.neuron.srm0_network import build_srm0_network

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_ir_passes.json"

#: Optimized-program batches may not run slower than the legacy
#: program->Network->compile path by more than this factor.
MAX_LEGACY_RATIO = 1.10
#: On minimal networks the pipeline must be a no-op, so the optimized
#: batch may not regress past timing noise.
MAX_MINIMAL_RATIO = 1.10


def redundant_networks():
    """Synthesis output with deliberate, pass-removable redundancy."""
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
    return {"minterm(3x12)": minterm, "srm0-column(3in)": column}


def minimal_networks():
    """Already-optimal structures the pipeline must leave alone."""
    b = NetworkBuilder("diamond")
    x, y = b.input("x"), b.input("y")
    b.output("z", b.lt(b.min(x, y), b.max(x, y)))
    diamond = b.build()

    c = NetworkBuilder("delay-line")
    v = c.input("v")
    c.output("w", c.inc(v, 9))
    return {"diamond": diamond, "delay-line": c.build()}


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _volleys(network, batch, *, seed):
    rng = random.Random(seed)
    arity = len(network.input_names)
    return [
        random_volley(arity, rng=rng, silence_probability=0.25)
        for _ in range(batch)
    ]


def measure_redundant(network, *, batch, repeats, seed=0):
    """Reduction accounting plus optimized-vs-legacy batch timing."""
    program, report = optimize_program(network)
    legacy = program.to_network()  # the old path: pipeline -> Network
    volleys = _volleys(network, batch, seed=seed)

    # Warm the plans out of the timed region.
    evaluate_batch(network, volleys)
    evaluate_batch(program, volleys)
    evaluate_batch(legacy, volleys)

    t_raw = _best_of(repeats, lambda: evaluate_batch(network, volleys))
    t_opt = _best_of(repeats, lambda: evaluate_batch(program, volleys))
    t_leg = _best_of(repeats, lambda: evaluate_batch(legacy, volleys))
    return {
        "nodes_before": len(lower(network).nodes),
        "nodes_after": len(program.nodes),
        "removed_by_pass": report.by_pass(),
        "pipeline_iterations": report.iterations,
        "batch": batch,
        "raw_ms": t_raw * 1e3,
        "optimized_ms": t_opt * 1e3,
        "legacy_optimize_ms": t_leg * 1e3,
        "speedup_vs_raw": t_raw / t_opt if t_opt else float("inf"),
        "ratio_vs_legacy": t_opt / t_leg if t_leg else float("inf"),
    }


def measure_minimal(network, *, batch, repeats, seed=1):
    """The no-op guarantee: same structure, shared plan, no slowdown."""
    program, report = optimize_program(network)
    volleys = _volleys(network, batch, seed=seed)
    shares_plan = compile_plan(network) is compile_plan(program)

    evaluate_batch(network, volleys)
    evaluate_batch(program, volleys)
    t_raw = _best_of(repeats, lambda: evaluate_batch(network, volleys))
    t_opt = _best_of(repeats, lambda: evaluate_batch(program, volleys))
    return {
        "nodes_before": len(lower(network).nodes),
        "nodes_after": len(program.nodes),
        "removed": report.removed,
        "shares_compiled_plan": shares_plan,
        "batch": batch,
        "raw_ms": t_raw * 1e3,
        "optimized_ms": t_opt * 1e3,
        "ratio_vs_raw": t_opt / t_raw if t_raw else float("inf"),
    }


def run(*, smoke=False, repeats=None):
    batch = 64 if smoke else 256
    repeats = repeats or (5 if smoke else 30)
    runtime.clear_caches(results=False)
    cache_before = runtime.cache_info()["plan"]
    redundant = {
        name: measure_redundant(net, batch=batch, repeats=repeats)
        for name, net in redundant_networks().items()
    }
    minimal = {
        name: measure_minimal(net, batch=batch, repeats=repeats)
        for name, net in minimal_networks().items()
    }
    cache_after = runtime.cache_info()["plan"]
    return {
        "benchmark": "bench_ir_passes",
        "smoke": smoke,
        "batch": batch,
        "max_legacy_ratio": MAX_LEGACY_RATIO,
        "max_minimal_ratio": MAX_MINIMAL_RATIO,
        "redundant": redundant,
        "minimal": minimal,
        "plan_cache": {
            "misses": cache_after["misses"] - cache_before["misses"],
            "hits_identity": (
                cache_after["hits_identity"] - cache_before["hits_identity"]
            ),
            "hits_structural": (
                cache_after["hits_structural"] - cache_before["hits_structural"]
            ),
            "evictions": cache_after["evictions"] - cache_before["evictions"],
        },
    }


def report(*, smoke=False, artifact_path=ARTIFACT) -> tuple[str, bool]:
    data = run(smoke=smoke)
    artifact_path = Path(artifact_path)
    artifact_path.write_text(json.dumps(data, indent=2) + "\n")

    ok = True
    lines = ["IR pass pipeline — node reduction and evaluate_batch payoff"]
    lines.append("\nredundant networks (pipeline must shrink and pay off):")
    lines.append(
        f"{'network':<20} {'nodes':>11} {'raw':>9} {'optimized':>10} "
        f"{'speedup':>8} {'vs legacy':>9}"
    )
    for name, row in data["redundant"].items():
        lines.append(
            f"{name:<20} {row['nodes_before']:>4} -> {row['nodes_after']:<4} "
            f"{row['raw_ms']:>8.3f} {row['optimized_ms']:>9.3f}ms "
            f"{row['speedup_vs_raw']:>7.2f}x {row['ratio_vs_legacy']:>8.2f}x"
        )
        if row["nodes_after"] >= row["nodes_before"]:
            ok = False
            lines.append(f"  FAIL: pipeline did not shrink {name}")
        if not smoke and row["ratio_vs_legacy"] > MAX_LEGACY_RATIO:
            ok = False
            lines.append(
                f"  FAIL: optimized batch is {row['ratio_vs_legacy']:.2f}x "
                f"the legacy Network path (bound {MAX_LEGACY_RATIO:.2f}x)"
            )
    lines.append("\nminimal networks (pipeline must be a no-op):")
    for name, row in data["minimal"].items():
        lines.append(
            f"{name:<20} {row['nodes_before']:>4} -> {row['nodes_after']:<4} "
            f"shared-plan={row['shares_compiled_plan']} "
            f"ratio={row['ratio_vs_raw']:.2f}x"
        )
        if row["removed"] != 0 or not row["shares_compiled_plan"]:
            ok = False
            lines.append(f"  FAIL: pipeline was not a no-op on {name}")
        if not smoke and row["ratio_vs_raw"] > MAX_MINIMAL_RATIO:
            ok = False
            lines.append(
                f"  FAIL: optimized batch regressed {row['ratio_vs_raw']:.2f}x "
                f"on {name} (bound {MAX_MINIMAL_RATIO:.2f}x)"
            )
    cache = data["plan_cache"]
    lines.append(
        f"\nplan cache: {cache['misses']} miss(es), "
        f"{cache['hits_identity']} identity / "
        f"{cache['hits_structural']} structural hit(s), "
        f"{cache['evictions']} eviction(s)"
    )
    lines.append(f"artifact: {artifact_path}")
    return "\n".join(lines), ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small batch, fewer repeats (CI quick mode; timing bounds off)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=ARTIFACT,
        help=f"artifact path (default {ARTIFACT.name} at repo root)",
    )
    args = parser.parse_args(argv)
    text, ok = report(smoke=args.smoke, artifact_path=args.json)
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
