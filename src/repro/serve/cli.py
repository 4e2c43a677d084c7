"""The ``python -m repro serve`` command line, importable on its own.

``python -m repro serve`` parses its arguments with :func:`serve_parser`
and starts the warm worker (:mod:`repro.serve.worker`) before it imports
the serving stack, so this module imports nothing but :mod:`argparse`.
"""

from __future__ import annotations

import argparse


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=7070, help="TCP port (0 picks a free one)"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker processes in the pool"
    )
    parser.add_argument(
        "--inline",
        action="store_true",
        help="evaluate in-process instead of in worker processes",
    )
    parser.add_argument(
        "--no-result-cache",
        action="store_true",
        help="disable the (fingerprint, volley) result cache "
        "(armed by default; repeats then always re-evaluate)",
    )
    parser.add_argument(
        "--result-cache-entries",
        type=int,
        default=None,
        metavar="N",
        help="rebound the result cache to N entries (default 4096)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=64, help="micro-batch size trigger"
    )
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="micro-batch latency trigger (milliseconds)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admission bound; beyond it requests are rejected 'overloaded'",
    )
    parser.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        help="default per-request deadline (none if omitted)",
    )
    parser.add_argument(
        "--model-seed", type=int, default=0, help="seed of the built-in demo model"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="smaller demo model (CI budget)"
    )
    parser.add_argument(
        "--kernel",
        action="append",
        metavar="NAME",
        help=(
            "also serve a stdlib kernel demo model as 'kernel:NAME' "
            "(repeatable; see `python -m repro kernels`)"
        ),
    )
    parser.add_argument(
        "--model-file",
        action="append",
        metavar="PATH",
        help="also serve a serialized network (repeatable)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a final metrics snapshot here on shutdown",
    )
    parser.add_argument(
        "--port-file",
        metavar="PATH",
        help="write the bound port here once listening (for --port 0)",
    )
    parser.add_argument(
        "--train",
        action="store_true",
        help=(
            "run the online training plane: serve the seeded "
            "classification scenario column under --train-alias, accept "
            "'train' ops, snapshot + hot-swap as it learns"
        ),
    )
    parser.add_argument(
        "--train-alias",
        default="digits@live",
        metavar="ALIAS",
        help="versioned alias the training plane promotes (default %(default)s)",
    )
    parser.add_argument(
        "--train-seed",
        type=int,
        default=0,
        help="seed of the training scenario and trainer",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=50,
        metavar="N",
        help="training presentations between snapshots/promotions",
    )
    parser.add_argument(
        "--lineage-out",
        metavar="PATH",
        help="write the training lineage document here on shutdown",
    )
    parser.add_argument(
        "--rtrace",
        action="store_true",
        help="enable request-scoped span tracing (repro.obs.rtrace)",
    )
    parser.add_argument(
        "--flight-out",
        metavar="PREFIX",
        help=(
            "dump the flight recorder to PREFIX.jsonl + PREFIX.trace.json "
            "on SIGUSR2 and on recorded anomalies"
        ),
    )


def serve_parser() -> argparse.ArgumentParser:
    """The ``python -m repro serve`` parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Serve TNN inference over newline-delimited JSON: concurrent "
            "single-volley requests are micro-batched into compiled "
            "evaluate_batch calls on a sharded worker pool.  Drive it "
            "with `python -m repro loadgen`."
        ),
    )
    add_serve_arguments(parser)
    return parser
