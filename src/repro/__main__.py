"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``selfcheck`` — run the library's core equivalence and property checks
  (the paper's headline claims) and print a pass/fail summary.  Useful
  after installation or porting to a new Python.
* ``conformance`` — the differential conformance sweep: seeded random
  networks through every evaluation backend, plus the fault-injection
  self-check (injected mutants must be caught).  See
  ``python -m repro conformance --help``.
* ``trace`` — run one volley through a seeded SRM0 column on every
  backend, check the canonical spike traces are byte-identical, and
  print/export the trace (JSONL and Chrome ``chrome://tracing`` JSON).
* ``ir`` — build a seeded column, run the IR optimizer over it and
  report the node counts, step by step.
* ``kernels`` — the s-t kernel standard library: list the registry, or
  ``--demo <name>`` to run a kernel's demo volley through every backend
  (byte-identity checked) and print its inferred function-table
  contract.
* ``stats`` — runtime metrics: counters, timers, the result-cache
  record and the four engines in report order, optionally after
  exercising every backend once; with ``--json`` the serving-layer
  section (queue depth, batch histogram, latency quantiles) rides along.
* ``train`` — online STDP through the training plane, locally: stream
  the seeded classification scenario (or an NDJSON ``--source``) through
  ingestion → trainer → snapshot → promote and report the holdout
  accuracy-vs-steps curve; ``--show`` queries a saved lineage document.
* ``serve`` — the asynchronous micro-batching inference service: TCP
  newline-delimited JSON, a sharded worker-process pool, fingerprint-
  keyed model registry.  See ``python -m repro serve --help``.
* ``loadgen`` — drive a running server with seeded volleys and byte-check
  every response against a direct local ``evaluate_batch``.
* ``top`` — live terminal dashboard for a running server: throughput,
  queue gauges, per-stage latency quantiles, worker pool and
  flight-recorder state (``--once`` for a single scriptable frame).
* ``info`` — version and package inventory.

Exit status is non-zero when a selfcheck, conformance, trace, or
loadgen conformance check fails.
"""

from __future__ import annotations

import sys


def _selfcheck() -> int:
    import random

    from .core.algebra import maximum
    from .core.function import enumerate_domain
    from .core.lattice import check_lattice_laws, standard_domain
    from .core.properties import verify
    from .core.synthesis import max_from_min_lt, synthesize
    from .core.table import FIG7_TABLE, NormalizedTable
    from .neuron.response import ResponseFunction
    from .neuron.srm0 import SRM0Neuron
    from .neuron.srm0_network import build_srm0_network
    from .testing.conformance import diff_backends

    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"  [{'ok' if ok else 'FAIL'}] {label}")
        if not ok:
            failures += 1

    print("repro selfcheck — Space-Time Algebra (Smith, ISCA 2018)")

    check(
        "lattice laws (bounded distributive lattice, §III.D)",
        not check_lattice_laws(standard_domain(5)),
    )

    lemma2 = max_from_min_lt().as_function()
    check(
        "Lemma 2: max from min+lt, exhaustive window 8",
        all(lemma2(a, b) == maximum(a, b) for a, b in enumerate_domain(2, 8)),
    )

    net = synthesize(FIG7_TABLE)
    check(
        "Theorem 1: Fig. 7 table synthesis ([3,4,5] -> 6)",
        net.as_function()(3, 4, 5) == 6,
    )
    check(
        "s-t properties of the synthesized network",
        verify(net.as_function(), window=4).ok,
    )
    run, disagreements = diff_backends(net, list(enumerate_domain(3, 3)))
    check(
        "four execution engines agree (interpreted/batch/event/CMOS)",
        not disagreements and not run.skipped,
    )

    table = NormalizedTable.random(3, window=3, n_rows=5, rng=random.Random(1))
    synthesized = synthesize(table).as_function()
    check(
        "Theorem 1 on a random table (exhaustive)",
        all(
            synthesized(*vec) == table.evaluate_causal(vec)
            for vec in enumerate_domain(3, table.max_entry() + 1)
        ),
    )

    base = ResponseFunction.piecewise_linear(amplitude=2, rise=1, fall=3)
    neuron = SRM0Neuron.homogeneous(2, [2, 1], base_response=base, threshold=3)
    fig12 = build_srm0_network(neuron).as_function()
    check(
        "Fig. 12 SRM0 construction == behavioral neuron (exhaustive)",
        all(
            fig12(*vec) == neuron.fire_time(vec)
            for vec in enumerate_domain(2, 5)
        ),
    )

    from .racelogic.shortest_path import dijkstra, race_shortest_paths, random_dag

    graph = random_dag(12, edge_probability=0.35, rng=random.Random(2))
    check(
        "race-logic shortest paths == Dijkstra",
        race_shortest_paths(graph, 0) == dijkstra(graph, 0),
    )

    print(
        f"\n{'ALL CHECKS PASSED' if not failures else f'{failures} CHECK(S) FAILED'}"
    )
    return 1 if failures else 0


def _conformance(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro conformance",
        description=(
            "Differential conformance sweep: run seeded random networks "
            "through every evaluation backend (interpreted, compiled "
            "batch, event-driven, GRL circuit), diff their outputs over "
            "adversarial volleys, shrink any disagreement to a minimal "
            "reproducer, and self-check the harness by injecting faults "
            "that must be caught."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="first case seed")
    parser.add_argument(
        "--count", type=int, default=50, help="number of seeded cases"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small cases and short volleys (CI smoke budget)",
    )
    parser.add_argument(
        "--no-faults",
        action="store_true",
        help="skip the fault-injection self-check",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw witnesses without minimizing them",
    )
    parser.add_argument(
        "--emit",
        action="store_true",
        help="print the generated regression test for each finding",
    )
    parser.add_argument(
        "--optimize",
        action="store_true",
        help=(
            "diff the backends on the served program (sorters grouped, "
            "IR-optimized) instead of the raw networks; all of them run "
            "that one program, so this does not check the optimizer"
        ),
    )
    parser.add_argument(
        "--family",
        metavar="NAME",
        help=(
            "pin every case to one generator family (layered, srm0, wta, "
            "kwta, microweight, kernels, sorters) instead of the weighted "
            "mix; sorters is only drawn this way"
        ),
    )
    args = parser.parse_args(argv)

    from .testing import run_conformance

    try:
        report = run_conformance(
            args.seed,
            args.count,
            smoke=args.smoke,
            with_faults=not args.no_faults,
            shrink=not args.no_shrink,
            optimize=args.optimize,
            family=args.family,
        )
    except ValueError as error:
        print(f"error: {error}")
        return 2
    print(report.summary())
    if args.emit:
        for mismatch in report.mismatches:
            if mismatch.regression_test:
                print("\n# --- regression test ---")
                print(mismatch.regression_test)
        if report.fault_report is not None:
            for detection in report.fault_report.detections:
                if detection.regression_test:
                    print("\n# --- fault reproducer ---")
                    print(detection.regression_test)
    return 0 if report.ok else 1


def _trace(argv: list[str]) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Run one volley through a seeded SRM0 column on every "
            "execution backend, record each backend's canonical spike "
            "trace, and require the traces to be byte-identical.  "
            "Exports JSON-lines and Chrome chrome://tracing formats."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="column/volley seed")
    parser.add_argument(
        "--smoke", action="store_true", help="smaller column (CI smoke budget)"
    )
    parser.add_argument(
        "--jsonl", metavar="PATH", help="write the canonical JSONL trace here"
    )
    parser.add_argument(
        "--chrome",
        metavar="PATH",
        help="write Chrome chrome://tracing JSON here",
    )
    args = parser.parse_args(argv)

    from .obs.trace import first_divergence, to_chrome_trace, to_jsonl
    from .runtime.engines import ENGINES
    from .serve.demo import demo_column

    network, volley = demo_column(args.seed, smoke=args.smoke)
    print(f"tracing {network.name}: volley {volley} -> "
          f"{len(network.nodes)} nodes, outputs {network.output_names}")

    traces = {}
    for engine in ENGINES:
        trace = engine().trace(network, volley)
        if trace is None:
            print(f"  {engine.name:<15} skipped (cannot trace this case)")
            continue
        traces[engine.name] = trace
        print(f"  {engine.name:<15} {len(trace)} spike(s)")
    if not traces:
        print("no backend produced a trace")
        return 1

    reference_name, reference = next(iter(traces.items()))
    document = to_jsonl(reference, network)
    divergent = False
    for name, trace in traces.items():
        if to_jsonl(trace, network) != document:
            divergent = True
            split = first_divergence(reference, trace)
            detail = (
                split.describe(reference_name, name, network=network)
                if split is not None
                else "traces differ"
            )
            print(f"TRACE DIVERGENCE {reference_name} vs {name}: {detail}")
    if not divergent:
        print(
            f"canonical traces byte-identical across {len(traces)} "
            f"backend(s): {', '.join(traces)}"
        )

    print()
    print(document, end="")
    if args.jsonl:
        with open(args.jsonl, "w") as handle:
            handle.write(document)
        print(f"wrote {args.jsonl}")
    if args.chrome:
        chrome = to_chrome_trace(
            reference, network, label=f"{network.name} {volley}"
        )
        with open(args.chrome, "w") as handle:
            json.dump(chrome, handle, indent=1)
        print(f"wrote {args.chrome}")
    return 1 if divergent else 0


def _ir(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro ir",
        description=(
            "Build a seeded SRM0 column and run the IR optimizer (one "
            "simplifying sweep, then dce), reporting node counts step by "
            "step.  The same network and optimizer feed all four "
            "execution backends."
        ),
    )
    parser.add_argument(
        "--describe",
        action="store_true",
        help="print the step-by-step node-count report and the program",
    )
    parser.add_argument("--seed", type=int, default=0, help="column seed")
    parser.add_argument(
        "--smoke", action="store_true", help="smaller column (CI smoke budget)"
    )
    args = parser.parse_args(argv)

    from .ir import optimize_program
    from .serve.demo import demo_column

    network, _ = demo_column(args.seed, smoke=args.smoke)
    print(
        f"lowered {network.name}: {len(network.nodes)} node(s), "
        f"depth {len(network.schedule) - 1}, "
        f"fingerprint {network.fingerprint()[:12]}"
    )
    optimized, report = optimize_program(network)
    if args.describe:
        print(report.describe())
        print()
        print(optimized.pretty())
    else:
        print(report.describe().splitlines()[0])
    return 0


def _kernels(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro kernels",
        description=(
            "The s-t kernel standard library (repro.kernels): STICK-style "
            "interval arithmetic, latch, barrier, router, and accumulator "
            "kernels with named ports and per-kernel conformance "
            "contracts.  With no arguments, lists the registry.  --demo "
            "runs a kernel's demo volley through every execution backend "
            "(outputs must be byte-identical) and prints its inferred "
            "function tables.  Serve a kernel with `python -m repro serve "
            "--kernel <name>`."
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="list the kernel registry"
    )
    parser.add_argument(
        "--demo",
        metavar="NAME",
        help="run NAME's demo volley on all backends + print its contract",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        help="override the function-table window for --demo",
    )
    args = parser.parse_args(argv)

    from .kernels import KERNELS, KernelError, build_kernel

    if args.demo is None:
        print(f"registered s-t kernels ({len(KERNELS)}):")
        for name, spec in KERNELS.items():
            kernel = spec.build()
            ports = f"{', '.join(kernel.inputs)} -> {', '.join(kernel.outputs)}"
            print(f"  {name:<20} {ports}")
            print(f"  {'':<20} {spec.description}")
        print("\nrun one: python -m repro kernels --demo <name>")
        return 0

    try:
        kernel = build_kernel(args.demo)
    except KernelError as error:
        print(f"error: {error}")
        return 2
    spec = KERNELS[args.demo]
    print(kernel.describe())

    from .testing.conformance import find_disagreements
    from .testing.oracles import run_backends

    volley = spec.demo_volley
    print(f"\ndemo volley {volley}:")
    run = run_backends(kernel.network(), [volley])
    for backend, results in sorted(run.results.items()):
        outputs = dict(zip(kernel.outputs, results[0]))
        print(f"  {backend:<15} {outputs}")
    agree = not find_disagreements(run)
    print(
        f"  -> {'byte-identical across ' + str(len(run.results)) + ' backend(s)' if agree else 'BACKENDS DISAGREE'}"
    )

    window = args.window if args.window is not None else spec.table_window
    print(f"\nfunction-table contract (window {window}):")
    for port, table in kernel.contract(window=window).items():
        rows = sorted(table.rows.items(), key=lambda item: str(item[0]))
        print(f"  {port}: {len(rows)} row(s)")
        for vector, value in rows[:12]:
            print(f"    {vector} -> {value}")
        if len(rows) > 12:
            print(f"    ... {len(rows) - 12} more")
    return 0 if agree else 1


def _stats(argv: list[str]) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro stats",
        description=(
            "Runtime metrics: counters, timers, and high-water marks "
            "from the observability registry, plus the result-cache "
            "record and the execution engines in report order.  "
            "Metrics are per-process; use --exercise to run a small "
            "workload through every backend first."
        ),
    )
    parser.add_argument(
        "--exercise",
        action="store_true",
        help="run a demo volley through all backends before reporting",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    parser.add_argument(
        "--reset", action="store_true", help="reset the registry after reporting"
    )
    args = parser.parse_args(argv)

    from .obs.metrics import METRICS, reset_metrics
    from .runtime import ENGINES, RESULT_CACHE

    if args.exercise:
        from .serve.demo import demo_column
        from .testing.oracles import run_backends

        network, volley = demo_column(0, smoke=True)
        run_backends(network, [volley])

    if args.json:
        from .serve.service import serve_snapshot

        counter = METRICS.counter
        payload = {
            "metrics": METRICS.snapshot(),
            "serve": serve_snapshot(),
            # Counters outlive a training plane; the gauges read the
            # plane live in this process, if there is one.
            "training": {
                "steps": counter("train.steps"),
                "snapshots": counter("train.snapshots"),
                "promotions": counter("train.promotions"),
                "queue": {
                    "accepted": counter("train.queue.accepted"),
                    "dropped": counter("train.queue.dropped"),
                    "depth": METRICS.gauge_value("training.queue.depth") or 0,
                },
                "last_accuracy": METRICS.gauge_value("training.last_accuracy"),
            },
            "cache": {"result": RESULT_CACHE.info()},
            "engines": [
                {"name": e.name, "cycle_accurate": e.cycle_accurate}
                for e in ENGINES
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(METRICS.render())
        result = RESULT_CACHE.info()
        print("result cache:")
        for key in sorted(result):
            print(f"  {key:<20} {result[key]}")
        print("engines (report order; compiled-batch serves):")
        for engine in ENGINES:
            note = " (cycle-accurate)" if engine.cycle_accurate else ""
            print(f"  {engine.name}{note}")
    if args.reset:
        reset_metrics()
        print("metrics reset")
    return 0


def _train(argv: list[str]) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro train",
        description=(
            "Online STDP training through the training plane, locally: "
            "bootstrap the seeded latency-coded classification scenario "
            "(repro.train.scenario) onto an in-process service, stream "
            "its training split (or an NDJSON --source) through the "
            "ingestion queue, snapshot on cadence, and report the "
            "holdout accuracy-vs-steps curve the lineage records.  The "
            "same plane runs against live traffic via "
            "`python -m repro serve --train`; query a saved provenance "
            "chain with --show."
        ),
    )
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized scenario cut"
    )
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=25,
        metavar="N",
        help="compile/register/promote every N presentations",
    )
    parser.add_argument(
        "--epochs",
        type=int,
        default=1,
        help="passes over the training stream",
    )
    parser.add_argument(
        "--source",
        metavar="PATH",
        help="replay an NDJSON training stream instead of the scenario split",
    )
    parser.add_argument(
        "--lineage-out",
        metavar="PATH",
        help="write the lineage document (JSON) here",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable run report"
    )
    parser.add_argument(
        "--show",
        metavar="PATH",
        help="print a saved lineage document and exit (no training)",
    )
    args = parser.parse_args(argv)

    from .train import ModelLineage

    if args.show:
        try:
            lineage = ModelLineage.load(args.show)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: {error}")
            return 2
        doc = lineage.describe()
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0
        print(
            f"lineage {doc['alias']!r}: {doc['snapshots']} snapshot(s), "
            f"{doc['total_steps']} applied step(s), head "
            f"{(doc['head'] or '?')[:12]}"
        )
        for record in doc["records"]:
            accuracy = (
                f"accuracy {record['accuracy']:.3f}"
                if record["accuracy"] is not None
                else "accuracy -"
            )
            parent = (record["parent"] or "seed")[:12]
            print(
                f"  {parent} -> {record['child'][:12]}  "
                f"+{record['steps']} steps ({record['total_steps']} total)  "
                f"{accuracy}"
            )
        return 0

    from .serve.batcher import BatchPolicy
    from .serve.pool import InlineWorkerPool
    from .serve.registry import ModelRegistry
    from .serve.service import TNNService
    from .train import TrainingPlane, classification_scenario, file_source

    scenario = classification_scenario(smoke=args.smoke, seed=args.seed)
    if args.source:
        try:
            items = list(file_source(args.source))
        except (OSError, ValueError) as error:
            print(f"error: {error}")
            return 2
        n_inputs = scenario.column.n_inputs
        for item in items:
            if len(item.volley) != n_inputs:
                print(
                    f"error: {args.source}: scenario column takes "
                    f"{n_inputs} lines, got {len(item.volley)}"
                )
                return 2
    else:
        items = scenario.items()

    registry = ModelRegistry()
    service = TNNService(
        registry,
        InlineWorkerPool(registry.programs()),
        policy=BatchPolicy(max_batch=8, max_wait_s=0.001),
    )
    alias = f"{scenario.name}@live"
    plane = TrainingPlane(
        service,
        scenario.column,
        alias=alias,
        trainer=scenario.make_trainer(),
        snapshot_every=args.snapshot_every,
        probe=scenario.probe,
        model_name=scenario.name,
    )
    service.training = plane
    try:
        seed_model = plane.bootstrap()
        untrained = plane.last_accuracy
        if not args.json:
            print(
                f"scenario {scenario.name!r}: {len(items)} training "
                f"volley(s) x {args.epochs} epoch(s), "
                f"{len(scenario.holdout)} holdout"
            )
            print(
                f"  seed {seed_model[:12]} @ {alias}: "
                f"holdout accuracy {untrained:.3f}"
            )
        for _epoch in range(max(1, args.epochs)):
            for item in items:
                plane.train_step(item)
        plane.snapshot()  # fold any sub-cadence remainder (dedups if unchanged)
        doc = plane.lineage.describe()
        if args.lineage_out:
            plane.lineage.save(args.lineage_out)
        stats = plane.stats()
        curve = [
            {
                "steps": record["total_steps"],
                "accuracy": record["accuracy"],
                "model": record["child"],
            }
            for record in doc["records"]
        ]
        report = {
            "scenario": scenario.name,
            "alias": alias,
            "seed": args.seed,
            "seed_model": seed_model,
            "final_model": plane.live_fingerprint,
            "untrained_accuracy": untrained,
            "final_accuracy": plane.last_accuracy,
            "presented": stats["presented"],
            "applied": stats["applied"],
            "snapshots": stats["snapshots"],
            "promotions": stats["promotions"],
            "curve": curve,
        }
    finally:
        service.close()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for point in curve[1:]:
            accuracy = (
                f"{point['accuracy']:.3f}"
                if point["accuracy"] is not None
                else "-"
            )
            print(
                f"  step {point['steps']:>5}: holdout accuracy {accuracy} "
                f"({point['model'][:12]})"
            )
        print(
            f"  final {report['final_model'][:12]}: "
            f"{report['untrained_accuracy']:.3f} -> "
            f"{report['final_accuracy']:.3f} over {report['applied']} "
            f"applied step(s), {report['snapshots']} snapshot(s)"
        )
        if args.lineage_out:
            print(f"wrote {args.lineage_out}")
    improved = (
        report["final_accuracy"] is not None
        and report["untrained_accuracy"] is not None
        and report["final_accuracy"] >= report["untrained_accuracy"]
    )
    return 0 if improved else 1


def _info() -> int:
    import repro

    print(f"repro {repro.__version__}")
    print("Space-Time Algebra: A Model for Neocortical Computation")
    print("(J. E. Smith, ISCA 2018) — full Python reproduction")
    print("\npackages:")
    for name in repro.__all__:
        if name.startswith("__"):
            continue
        module = getattr(repro, name)
        doc = (module.__doc__ or "").strip().splitlines()
        print(f"  repro.{name:<10} {doc[0] if doc else ''}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    command = args[0] if args else "info"
    if command == "selfcheck":
        return _selfcheck()
    if command == "conformance":
        return _conformance(args[1:])
    if command == "trace":
        return _trace(args[1:])
    if command == "ir":
        return _ir(args[1:])
    if command == "kernels":
        return _kernels(args[1:])
    if command == "stats":
        return _stats(args[1:])
    if command == "train":
        return _train(args[1:])
    if command == "serve":
        # Worker 0 is forked before the serving stack is imported or any
        # thread starts; every other worker process is forked by it.
        from .serve.cli import serve_parser
        from .serve.worker import start_warm_worker

        inline = serve_parser().parse_args(args[1:]).inline
        warm = None if inline else start_warm_worker()
        from .serve.server import serve_main

        return serve_main(args[1:], warm=warm)
    if command == "loadgen":
        from .serve.loadgen import loadgen_main

        return loadgen_main(args[1:])
    if command == "top":
        from .serve.top import top_main

        return top_main(args[1:])
    if command == "info":
        return _info()
    print(
        f"unknown command {command!r}; try: info, selfcheck, conformance, "
        "trace, ir, kernels, stats, train, serve, loadgen, top"
    )
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
