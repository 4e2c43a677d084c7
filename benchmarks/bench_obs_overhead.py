"""Observability overhead: the disabled path must cost (almost) nothing.

The metrics and profiling hooks added by ``repro.obs`` sit directly on
the hottest loop in the repository — ``CompiledPlan.outputs`` — so this
report proves the acceptance bound: with profiling off, the shipped
plan at B=1024 runs within 5% of the bare kernel executor.  Three
configurations are timed, interleaved round by round, on the engine
bench's Fig. 9 and Fig. 12 families:

* ``baseline`` — the plan's kernels run through the NumPy executor
  (buffer acquire, scatter, kernels, gather, release) with no
  profiling flag and no counters;
* ``outputs``  — the shipped ``plan.outputs`` (one module flag, one
  counter);
* ``spike-trace`` — :func:`~repro.obs.trace.spike_trace` of row 0 over
  ``plan.run``'s full value matrix (the priced, opt-in path; reported
  for scale, not bounded).

A second grid prices **request tracing** (:mod:`repro.obs.rtrace`) on
the serving path: the same saturating request sweep through
:class:`~repro.serve.service.TNNService` with tracing off and on
(spans + flight-recorder ring), at the serving acceptance shape
(``max_batch=256``, 4 workers).  The bound is the same 5%: with
tracing *off* the producer sites cost one module-flag read per
request, and even *on* the span tree is a handful of appends per
request — both invisible next to a 256-row engine batch.

Results land in ``BENCH_obs_overhead.json`` at the repo root.

Run standalone::

    python benchmarks/bench_obs_overhead.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import numpy as np

from repro.network.compile_plan import (
    CompiledPlan,
    _execute_kernels,
    compile_plan,
    encode_volleys,
)
from repro.network.generate import random_volley
from repro.obs.trace import spike_trace

from artifact_env import best_of, main, write_artifact
from bench_engine import bench_networks

BATCH_SIZES = (64, 1024)
SMOKE_BATCH_SIZES = (64,)

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_obs_overhead.json"

#: The acceptance bound on the shipped plan at the largest batch and on
#: request tracing at saturation.
MAX_OVERHEAD_PCT = 5.0


def acceptance_networks():
    """The engine bench's Fig. 9 and Fig. 12 families."""
    families = bench_networks()
    return {
        name: families[name]
        for name in ("fig09-minterm(3x16)", "fig12-srm0(4in)")
    }


def baseline_run(plan: CompiledPlan, matrix: np.ndarray) -> np.ndarray:
    """The plan's NumPy executor with every observability hook removed.

    The same buffers, scatter, kernels and gather as the shipped path,
    but no profiling flag and no counters, so the diff isolates the hook
    cost and nothing else.
    """
    scratch, arena, s1, s2, mask = plan._acquire(matrix.shape[0])
    arena[: plan.n_inputs] = matrix.T
    _execute_kernels(plan.kernels, arena, s1, s2, mask)
    out = np.ascontiguousarray(arena[plan.out_cols].T)
    plan._release(scratch)
    return out


def measure(network, batch_sizes=BATCH_SIZES, *, repeats=30, seed=0):
    """Per-batch rows: baseline vs shipped outputs vs spike-trace timings."""
    rng = random.Random(seed)
    arity = len(network.input_names)
    plan = compile_plan(network)
    rows = []
    for batch in batch_sizes:
        volleys = [
            random_volley(arity, rng=rng, silence_probability=0.25)
            for _ in range(batch)
        ]
        matrix = encode_volleys(volleys)

        want = baseline_run(plan, matrix)
        got = plan.outputs(matrix)
        assert (want == got).all(), f"hooked run != baseline at B={batch}"

        t_base, t_out, t_trace = best_of(
            repeats,
            lambda: baseline_run(plan, matrix),
            lambda: plan.outputs(matrix),
            lambda: spike_trace(network, plan.run(matrix)[0].tolist()),
        )
        rows.append(
            {
                "batch": batch,
                "baseline_ms": t_base * 1e3,
                "outputs_ms": t_out * 1e3,
                "spike_trace_ms": t_trace * 1e3,
                "outputs_overhead_pct": (t_out / t_base - 1.0) * 100.0,
                "spike_trace_overhead_pct": (t_trace / t_base - 1.0) * 100.0,
            }
        )
    return rows


#: Width of the SRM0 column the serve-path overhead grid runs on.  At
#: this width a 256-row batch is real engine work, so four workers are
#: **compute-bound** — which is what "saturation" means.  On the tiny
#: demo/bench columns a saturated pool is actually IPC-bound and the
#: grid would price Python scheduling, not tracing.
OVERHEAD_COLUMN_INPUTS = 80


def measure_serve(*, smoke=False, sweeps=10):
    """Saturating served sweeps, tracing off vs on: requests/s and delta.

    The serving acceptance shape: ``max_batch=256`` with 4 worker
    processes over a wide compute-bound column
    (:data:`OVERHEAD_COLUMN_INPUTS` inputs, built by
    :func:`bench_serving._bench_column`; inline pool on the tiny demo
    column under ``--smoke``).  All requests are submitted up front and
    the flush timer is set long, so the batcher always closes **full**
    256-row batches — partial-batch scheduling luck otherwise dominates
    the sweep time and drowns the signal.

    Methodology: one long-lived service serves *paired interleaved*
    sweeps — untraced then traced, alternating ``sweeps`` times — so
    slow drift (thermal, page cache, scheduler) hits both modes equally
    instead of biasing whichever ran second.  Each mode is summarized
    by its **minimum**: every sweep performs identical fixed work, and
    interference from outside the benchmark (host stolen time, sibling
    processes) only ever *adds* time, so the floor is the honest
    estimate and medians would price random spikes instead of tracing.
    After warmup the stable heap (model,
    service, encoded volleys) is frozen out of the cyclic GC with
    ``gc.freeze()``, mirroring what the serving CLI does at startup and
    worker processes do after each model load — without it the bench measures full-GC
    scans of the model heap, not tracing.  ``gc.collect()`` runs
    between sweeps, outside the timed region: a sweep's transient
    garbage (futures, results) otherwise gets collected inside the
    *next* sweep's timing, charging each mode for the other's
    allocations.
    """
    import gc

    from repro.obs import rtrace
    from repro.obs.metrics import reset_metrics
    from repro.serve.batcher import BatchPolicy
    from repro.serve.demo import demo_column, demo_volleys
    from repro.serve.pool import InlineWorkerPool, ProcessWorkerPool
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import TNNService

    n_requests = 256 if smoke else 4096
    n_workers = 0 if smoke else 4  # 0 ⇒ inline pool
    max_batch = 256
    if smoke:
        sweeps = min(sweeps, 3)

    registry = ModelRegistry()
    if smoke:
        network, _ = demo_column(0, smoke=True)
    else:
        try:
            from bench_serving import _bench_column
        except ImportError:
            from benchmarks.bench_serving import _bench_column
        network = _bench_column(OVERHEAD_COLUMN_INPUTS)
    registry.register(network, name="demo")
    arity = len(network.input_ids)
    volleys = demo_volleys(arity, n_requests, seed=11)

    pool = (
        InlineWorkerPool(registry.programs())
        if n_workers == 0
        else ProcessWorkerPool(registry.programs(), n_workers=n_workers)
    )
    service = TNNService(
        registry,
        pool,
        # The long flush timer never fires: requests arrive faster than
        # batches fill, so every batch closes at max_batch rows.
        policy=BatchPolicy(max_batch=max_batch, max_wait_s=0.05),
        max_pending=n_requests + 1,
    )

    def one_sweep():
        futures = [service.submit("demo", volley) for volley in volleys]
        for future in futures:
            future.result(timeout=120)

    times = {"untraced": [], "traced": []}
    try:
        for traced in (False, True):  # warm both code paths + worker plans
            rtrace.enable_rtrace(traced)
            one_sweep()
        rtrace.enable_rtrace(False)
        gc.collect()
        gc.freeze()
        for _ in range(sweeps):
            for mode in ("untraced", "traced"):
                rtrace.enable_rtrace(mode == "traced")
                gc.collect()  # the previous sweep's garbage, off the clock
                start = time.perf_counter()
                one_sweep()
                times[mode].append(time.perf_counter() - start)
    finally:
        rtrace.enable_rtrace(False)
        service.close()
        gc.unfreeze()
        rtrace.FLIGHT.clear()
        reset_metrics()

    t_off = min(times["untraced"])
    t_on = min(times["traced"])
    return {
        "requests": n_requests,
        "max_batch": max_batch,
        "workers": n_workers,
        "column_inputs": 0 if smoke else OVERHEAD_COLUMN_INPUTS,
        "sweeps": sweeps,
        "untraced_s": t_off,
        "traced_s": t_on,
        "untraced_sweeps_s": times["untraced"],
        "traced_sweeps_s": times["traced"],
        "untraced_rps": n_requests / t_off,
        "traced_rps": n_requests / t_on,
        "traced_overhead_pct": (t_on / t_off - 1.0) * 100.0,
    }


def run(*, smoke=False, repeats=None):
    batch_sizes = SMOKE_BATCH_SIZES if smoke else BATCH_SIZES
    repeats = repeats or (5 if smoke else 30)
    networks = {}
    for name, network in acceptance_networks().items():
        plan = compile_plan(network)
        networks[name] = {
            "nodes": len(network.nodes),
            "instructions": plan.n_instructions,
            "results": measure(network, batch_sizes, repeats=repeats),
        }
    return {
        "benchmark": "bench_obs_overhead",
        "smoke": smoke,
        "batch_sizes": list(batch_sizes),
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "networks": networks,
        "serve": measure_serve(smoke=smoke),
    }


def report(*, smoke=False, artifact_path=ARTIFACT) -> tuple[str, bool]:
    data = run(smoke=smoke)
    artifact_path = write_artifact(artifact_path, data)

    ok = True
    lines = ["Observability overhead — CompiledPlan.outputs per batch (ms, best-of)"]
    for name, entry in data["networks"].items():
        lines.append(f"\n{name}: {entry['instructions']} instructions")
        lines.append(
            f"{'B':>6} {'baseline':>10} {'outputs':>10} {'spike-trace':>12} "
            f"{'out-ovh':>9} {'trace-ovh':>10}"
        )
        for row in entry["results"]:
            lines.append(
                f"{row['batch']:>6} {row['baseline_ms']:>10.3f} "
                f"{row['outputs_ms']:>10.3f} {row['spike_trace_ms']:>12.3f} "
                f"{row['outputs_overhead_pct']:>8.1f}% "
                f"{row['spike_trace_overhead_pct']:>9.1f}%"
            )
        top = entry["results"][-1]
        if not smoke and top["outputs_overhead_pct"] > MAX_OVERHEAD_PCT:
            ok = False
            lines.append(
                f"  FAIL: plan.outputs overhead {top['outputs_overhead_pct']:.1f}% "
                f"exceeds the {MAX_OVERHEAD_PCT:.0f}% bound at "
                f"B={top['batch']}"
            )
    serve = data["serve"]
    lines.append(
        f"\nserving path (max_batch={serve['max_batch']}, "
        f"workers={serve['workers'] or 'inline'}, "
        f"{serve['requests']} saturating requests, best of "
        f"{serve['sweeps']} interleaved sweeps):"
    )
    lines.append(
        f"  untraced {serve['untraced_rps']:>10,.0f} req/s   "
        f"traced {serve['traced_rps']:>10,.0f} req/s   "
        f"overhead {serve['traced_overhead_pct']:>5.1f}%"
    )
    if not smoke and serve["traced_overhead_pct"] > MAX_OVERHEAD_PCT:
        ok = False
        lines.append(
            f"  FAIL: request-tracing overhead "
            f"{serve['traced_overhead_pct']:.1f}% exceeds the "
            f"{MAX_OVERHEAD_PCT:.0f}% bound at saturation"
        )

    lines.append(f"\nartifact: {artifact_path}")
    lines.append(
        "\nshape: the shipped path adds one module flag read and one "
        "counter per run — "
        "constant per batch, so its relative cost shrinks as B grows."
    )
    return "\n".join(lines), ok


if __name__ == "__main__":
    raise SystemExit(main(report, ARTIFACT, __doc__))
