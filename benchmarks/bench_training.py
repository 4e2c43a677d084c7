"""Online training beside serving: accuracy-vs-steps and throughput.

The training plane's acceptance story, measured end to end: the seeded
latency-coded classification scenario (``repro.train.scenario``) is
trained *online* — volleys stream through the bounded ingestion queue
into the incremental STDP trainer while the very column being trained
serves concurrent eval traffic through its alias, hot-swapping on every
snapshot.  The report captures both sides:

* **learning** — the holdout accuracy-vs-steps curve read off the
  lineage records (each snapshot probes the holdout split before
  promotion), anchored by the untrained seed column's accuracy;
* **throughput** — sustained training steps/s and concurrently served
  eval requests/s over the same wall-clock window, plus ingestion-queue
  drops (backpressure is drop-and-count, never serving-plane blocking).

Acceptance: the online-trained model must beat the untrained seed on
the held-out set (the curve's last point above its first), with zero
failed eval requests.  Results land in ``BENCH_training.json``.

Run standalone::

    python benchmarks/bench_training.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.serve.batcher import BatchPolicy
from repro.serve.pool import InlineWorkerPool
from repro.serve.registry import ModelRegistry
from repro.serve.service import TNNService
from repro.train import TrainingPlane, classification_scenario

from artifact_env import main, write_artifact

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_training.json"

#: Minimum holdout-accuracy lift over the untrained seed (full mode).
MIN_IMPROVEMENT = 0.15

#: Eval-side closed-loop client threads running beside training.
EVAL_THREADS = 2


def _serve_while_training(service, alias, volleys, stop):
    """Closed-loop eval pressure on *alias* until *stop*; returns counts."""
    served = [0]
    errors = [0]
    lock = threading.Lock()

    def client(offset):
        i = offset
        while not stop.is_set():
            try:
                service.submit(alias, volleys[i % len(volleys)]).result(
                    timeout=30
                )
            except Exception:
                with lock:
                    errors[0] += 1
            else:
                with lock:
                    served[0] += 1
            i += 1

    threads = [
        threading.Thread(target=client, args=(k * 13,), daemon=True)
        for k in range(EVAL_THREADS)
    ]
    for thread in threads:
        thread.start()
    return threads, served, errors


def run(*, smoke: bool = False, seed: int = 0) -> dict:
    scenario = classification_scenario(smoke=smoke, seed=seed)
    epochs = 1 if smoke else 2
    snapshot_every = 20 if smoke else 25

    registry = ModelRegistry()
    service = TNNService(
        registry,
        InlineWorkerPool(registry.programs()),
        policy=BatchPolicy(max_batch=16, max_wait_s=0.001),
    )
    alias = f"{scenario.name}@live"
    plane = TrainingPlane(
        service,
        scenario.column,
        alias=alias,
        trainer=scenario.make_trainer(),
        snapshot_every=snapshot_every,
        probe=scenario.probe,
        model_name=scenario.name,
    )
    service.training = plane

    try:
        plane.bootstrap()
        untrained = plane.last_accuracy
        plane.start()

        items = scenario.items()
        expected = len(items) * epochs
        eval_volleys = [tuple(item.volley) for item in scenario.holdout]
        stop = threading.Event()
        threads, served, errors = _serve_while_training(
            service, alias, eval_volleys, stop
        )

        started = time.perf_counter()
        for _epoch in range(epochs):
            for item in items:
                # Backpressure: the queue drops when full, but the bench
                # wants every presentation, so re-offer until accepted.
                while not plane.ingest(item):
                    time.sleep(0.001)
        deadline = time.monotonic() + 600
        while plane.stats()["presented"] < expected:
            if time.monotonic() > deadline:
                raise RuntimeError("training plane stalled")
            time.sleep(0.01)
        plane.stop()
        elapsed = time.perf_counter() - started
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

        stats = plane.stats()
        doc = plane.lineage.describe()
    finally:
        service.close()

    curve = [
        {
            "steps": record["total_steps"],
            "accuracy": record["accuracy"],
            "model": record["child"],
        }
        for record in doc["records"]
    ]
    final = curve[-1]["accuracy"] if curve else None
    return {
        "benchmark": "bench_training",
        "smoke": smoke,
        "scenario": scenario.name,
        "alias": alias,
        "seed": seed,
        "epochs": epochs,
        "snapshot_every": snapshot_every,
        "holdout": len(scenario.holdout),
        "untrained_accuracy": untrained,
        "final_accuracy": final,
        "improvement": (
            round(final - untrained, 4)
            if final is not None and untrained is not None
            else None
        ),
        "curve": curve,
        "presented": stats["presented"],
        "applied": stats["applied"],
        "snapshots": stats["snapshots"],
        "promotions": stats["promotions"],
        "queue_dropped": stats["queue"]["dropped"],
        "elapsed_s": round(elapsed, 4),
        "train_steps_per_s": round(stats["presented"] / elapsed, 1),
        "serve": {
            "requests": served[0],
            "errors": errors[0],
            "rps": round(served[0] / elapsed, 1),
        },
    }


def report(*, smoke: bool = False, artifact_path=ARTIFACT) -> tuple[str, bool]:
    data = run(smoke=smoke)
    artifact_path = write_artifact(artifact_path, data)

    ok = True
    lines = [
        f"Online training beside serving — scenario {data['scenario']!r}, "
        f"{data['presented']} presentations "
        f"({data['epochs']} epoch(s), snapshot every "
        f"{data['snapshot_every']}), {data['holdout']} holdout volleys",
        f"\naccuracy-vs-steps (holdout, probed at each promoted snapshot):",
    ]
    for point in data["curve"]:
        accuracy = (
            f"{point['accuracy']:.3f}" if point["accuracy"] is not None else "-"
        )
        lines.append(
            f"  {point['steps']:>5} steps  {accuracy}  ({point['model'][:12]})"
        )
    lines.append(
        f"\nuntrained seed {data['untrained_accuracy']:.3f} -> "
        f"online-trained {data['final_accuracy']:.3f} "
        f"(+{data['improvement']:.3f}) over {data['applied']} applied "
        f"step(s), {data['snapshots']} hot-swapped snapshot(s)"
    )
    lines.append(
        f"throughput: {data['train_steps_per_s']:.0f} train steps/s while "
        f"serving {data['serve']['rps']:.0f} eval req/s "
        f"({data['serve']['requests']} served, {data['serve']['errors']} "
        f"failed, {data['queue_dropped']} ingest drops) in "
        f"{data['elapsed_s']}s"
    )

    if data["final_accuracy"] is None or data["untrained_accuracy"] is None:
        ok = False
        lines.append("FAIL: no accuracy probes recorded")
    elif data["final_accuracy"] <= data["untrained_accuracy"]:
        ok = False
        lines.append("FAIL: online training did not beat the untrained seed")
    elif not smoke and data["improvement"] < MIN_IMPROVEMENT:
        ok = False
        lines.append(
            f"FAIL: improvement below the +{MIN_IMPROVEMENT:.2f} "
            f"acceptance bound"
        )
    if data["serve"]["errors"]:
        ok = False
        lines.append(
            f"FAIL: {data['serve']['errors']} eval request(s) failed during "
            f"training"
        )

    lines.append(f"\nartifact: {artifact_path}")
    lines.append(
        "\nshape: every snapshot is compile -> fingerprint-verified register "
        "-> warm -> atomic alias flip, so the eval clients ride through "
        "each promotion without a dropped or stale response while the "
        "curve climbs."
    )
    return "\n".join(lines), ok


def bench_training_smoke(benchmark=None):
    """Pytest-benchmark hook: the smoke scenario must learn online."""
    data = run(smoke=True)
    assert data["final_accuracy"] > data["untrained_accuracy"]
    assert data["serve"]["errors"] == 0


if __name__ == "__main__":
    raise SystemExit(main(report, ARTIFACT, __doc__))
