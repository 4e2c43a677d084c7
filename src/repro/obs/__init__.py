"""Observability: spike tracing, runtime metrics, and profiling hooks.

The instrumentation layer of the reproduction.  Three pillars, each
designed so the *disabled* path costs (almost) nothing:

* :mod:`repro.obs.trace` — the canonical per-node spike trace and the
  :class:`~repro.obs.trace.TraceSink` protocol every execution backend
  (interpreted, compiled batch, event-driven, GRL circuit) emits into;
  exports JSONL and Chrome ``chrome://tracing`` formats, and diffs two
  traces down to the first divergent node.
* :mod:`repro.obs.metrics` — the one process-wide metrics registry:
  counters, timers, high-water marks, pulled gauges and labelled
  histograms (evaluations, plan compiles, spikes, request latency,
  batch sizes, queue depth), with one Prometheus text renderer and the
  JSON snapshot behind ``python -m repro stats`` and the server's
  ``metrics``/``metrics_text`` ops.
* :mod:`repro.obs.profile` — opt-in wall-clock phase attribution for
  ``evaluate_batch`` and the conformance engine.
* :mod:`repro.obs.rtrace` — request-scoped span tracing for the serving
  path (admission → batch → dispatch → engine → encode), with the
  bounded :class:`~repro.obs.rtrace.FlightRecorder` ring of recent
  request traces dumped on crashes, deadline misses, overload bursts,
  or ``SIGUSR2``.
* :mod:`repro.obs.hist` — the histogram series type: lifetime bucket
  counts for the exposition plus an epoch-rotated window for quantiles.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy(
    __name__,
    {
        "hist": ("BUCKET_BOUNDS_S", "LatencyHistogram"),
        "metrics": ("METRICS", "MetricsRegistry", "reset_metrics", "snapshot"),
        "profile": ("phase", "profiled", "profiling_enabled"),
        "rtrace": (
            "FLIGHT", "FlightRecorder", "RequestTrace", "Span",
            "canonical_jsonl", "enable_rtrace", "rtrace_enabled", "rtracing",
            "well_formed", "from_jsonl as spans_from_jsonl",
            "to_chrome_trace as spans_to_chrome_trace",
            "to_jsonl as spans_to_jsonl",
        ),
        "trace": (
            "NULL_SINK", "Divergence", "NullSink", "RecordingSink",
            "TraceEvent", "TraceSink", "cause_of", "emit_events",
            "first_divergence", "from_jsonl", "project_events",
            "to_chrome_trace", "to_jsonl",
        ),
    },
)
