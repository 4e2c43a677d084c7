"""Observability: spike tracing, runtime metrics, and profiling hooks.

The instrumentation layer of the reproduction.  Three pillars, each
designed so the *disabled* path costs (almost) nothing:

* :mod:`repro.obs.trace` — the canonical per-node spike trace and the
  :class:`~repro.obs.trace.TraceSink` protocol every execution backend
  (interpreted, compiled batch, event-driven, GRL circuit) emits into;
  exports JSONL and Chrome ``chrome://tracing`` formats, and diffs two
  traces down to the first divergent node.
* :mod:`repro.obs.metrics` — the process-wide counter/timer/high-water
  registry (evaluations, volleys, plan-cache hits, spikes, queue depth)
  behind ``python -m repro stats``.
* :mod:`repro.obs.profile` — opt-in wall-clock phase attribution for
  ``evaluate_batch`` and the conformance engine.
* :mod:`repro.obs.rtrace` — request-scoped span tracing for the serving
  path (admission → batch → dispatch → engine → encode), with the
  bounded :class:`~repro.obs.rtrace.FlightRecorder` ring of recent
  request traces dumped on crashes, deadline misses, overload bursts,
  or ``SIGUSR2``.
* :mod:`repro.obs.hist` — log-bucketed sliding-window latency
  histograms (epoch rotation, outcome labels, Prometheus text
  exposition) behind ``serve.stats`` and the ``metrics_text`` op.
"""

from .hist import BUCKET_BOUNDS_S, HistogramVault, LatencyHistogram
from .metrics import METRICS, MetricsRegistry, reset_metrics, snapshot
from .profile import phase, profiled, profiling_enabled
from .rtrace import (
    FLIGHT,
    FlightRecorder,
    RequestTrace,
    Span,
    canonical_jsonl,
    enable_rtrace,
    rtrace_enabled,
    rtracing,
    well_formed,
)
from .rtrace import from_jsonl as spans_from_jsonl
from .rtrace import to_chrome_trace as spans_to_chrome_trace
from .rtrace import to_jsonl as spans_to_jsonl
from .trace import (
    NULL_SINK,
    Divergence,
    NullSink,
    RecordingSink,
    TraceEvent,
    TraceSink,
    cause_of,
    emit_events,
    first_divergence,
    from_jsonl,
    project_events,
    to_chrome_trace,
    to_jsonl,
)

__all__ = [
    "BUCKET_BOUNDS_S",
    "FLIGHT",
    "FlightRecorder",
    "HistogramVault",
    "LatencyHistogram",
    "METRICS",
    "MetricsRegistry",
    "NULL_SINK",
    "Divergence",
    "NullSink",
    "RecordingSink",
    "RequestTrace",
    "Span",
    "TraceEvent",
    "TraceSink",
    "canonical_jsonl",
    "cause_of",
    "emit_events",
    "enable_rtrace",
    "first_divergence",
    "from_jsonl",
    "phase",
    "profiled",
    "profiling_enabled",
    "project_events",
    "reset_metrics",
    "rtrace_enabled",
    "rtracing",
    "snapshot",
    "spans_from_jsonl",
    "spans_to_chrome_trace",
    "spans_to_jsonl",
    "to_chrome_trace",
    "to_jsonl",
    "well_formed",
]
