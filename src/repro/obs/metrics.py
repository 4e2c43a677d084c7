"""Runtime metrics: the one process-wide registry and its renderers.

Every execution backend, the serving stack, the runtime caches and the
training plane report here — evaluations run, volleys processed,
plan compiles, spikes fired, request latency, batch sizes — so a
long-running process (or a test) can ask "what has this library
actually been doing?" without changing any call site.  Writers stay
cheap: a counter increment is one dict store, a histogram observation
one lock plus a bucket scan.

Five metric families:

* **counters** — monotonically increasing event counts
  (:meth:`MetricsRegistry.inc`);
* **timers** — accumulated wall-clock per label with a call count
  (:meth:`MetricsRegistry.add_time` / :meth:`MetricsRegistry.timeit`),
  fed by the opt-in profiler (:mod:`repro.obs.profile`);
* **maxima** — high-water marks such as the event simulator's peak queue
  depth (:meth:`MetricsRegistry.observe_max`);
* **gauges** — live values *pulled* from callables their owner (a
  service, a pool, a cache, a training plane) registers with
  :meth:`MetricsRegistry.add_gauges` and removes on close;
* **histograms** — labelled families with fixed bucket bounds
  (:meth:`MetricsRegistry.histogram`), one
  :class:`~repro.obs.hist.LatencyHistogram` series per label set:
  lifetime buckets for the exposition, a sliding window for quantiles.

The module-level :data:`METRICS` instance is what the library writes to.
:meth:`MetricsRegistry.snapshot` is the JSON shape of the scalar
families (what ``python -m repro stats`` prints, and the shape of the
:func:`snapshot_delta` a serving worker process reports for the frontend
to :meth:`~MetricsRegistry.absorb`), and :meth:`MetricsRegistry.prometheus`
renders every family in Prometheus text exposition format for the
server's ``metrics_text`` op.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .hist import LatencyHistogram

#: The content type Prometheus scrapers expect for :meth:`MetricsRegistry.prometheus`.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: A gauge reader: the live value, or ``None`` to leave the gauge out.
GaugeReader = Callable[[], Optional[float]]


class Histogram:
    """A labelled histogram family: one series per label-value tuple.

    Every series shares the family's bucket *bounds*; a family without
    labels has exactly one series, rendered even before its first
    observation.  The family lock serializes observations and reads.
    """

    def __init__(
        self, name: str, bounds: Sequence[float], labels: Sequence[str], help: str
    ):
        self.name = name
        self.bounds = tuple(bounds)
        self.labels = tuple(labels)
        self.help = help
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], LatencyHistogram] = {}

    def observe(self, value: float, *labels: str, now: Optional[float] = None) -> None:
        """One observation into the series of *labels* (created on first use)."""
        with self._lock:
            series = self._series.get(labels)
            if series is None:
                series = self._series[labels] = LatencyHistogram(self.bounds, now=now)
            series.observe(value, now=now)

    def snapshot(self, *, now: Optional[float] = None) -> dict[tuple[str, ...], dict]:
        """``{label values: series snapshot}`` for every series."""
        now = time.monotonic() if now is None else now
        with self._lock:
            return {
                labels: series.snapshot(now=now)
                for labels, series in sorted(self._series.items())
            }

    def merged(self, *, now: Optional[float] = None, **match: str) -> LatencyHistogram:
        """Every series whose labels equal *match*, summed into one.

        Summing buckets is exact for histograms (unlike merging
        per-series quantiles).
        """
        now = time.monotonic() if now is None else now
        slots = [(self.labels.index(label), value) for label, value in match.items()]
        merged = LatencyHistogram(self.bounds, now=now)
        with self._lock:
            for labels, series in self._series.items():
                if all(labels[slot] == value for slot, value in slots):
                    merged.absorb(series, now=now)
        return merged

    def reset(self) -> None:
        with self._lock:
            self._series.clear()

    def _exposition(self) -> list[str]:
        metric = _metric_name(self.name)
        lines = [f"# HELP {metric} {self.help}"] if self.help else []
        lines.append(f"# TYPE {metric} histogram")
        with self._lock:
            rows = [
                (labels, series.lifetime_counts(), series.count, series.sum)
                for labels, series in sorted(self._series.items())
            ]
        if not rows and not self.labels:
            rows = [((), [0] * (len(self.bounds) + 1), 0, 0.0)]
        les = [_format_float(bound) for bound in self.bounds] + ["+Inf"]
        for values, counts, count, total in rows:
            pairs = [
                f'{label}="{_escape(value)}"'
                for label, value in zip(self.labels, values)
            ]
            cumulative = 0
            for le, bucket in zip(les, counts):
                cumulative += bucket
                labels = ",".join(pairs + [f'le="{le}"'])
                lines.append(f"{metric}_bucket{{{labels}}} {cumulative}")
            labels = "{" + ",".join(pairs) + "}" if pairs else ""
            lines.append(f"{metric}_count{labels} {count}")
            lines.append(f"{metric}_sum{labels} {_format_float(total)}")
        return lines


class MetricsRegistry:
    """Counters, timers, high-water marks, pulled gauges and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._timer_totals: dict[str, float] = {}
        self._timer_counts: dict[str, int] = {}
        self._maxima: dict[str, int] = {}
        self._gauges: dict[str, GaugeReader] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- writers (hot path: keep these to single dict operations) -----------
    def inc(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name* (creating it at 0)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def observe_max(self, name: str, value: int) -> None:
        """Raise high-water mark *name* to *value* if it is larger."""
        if value > self._maxima.get(name, 0):
            self._maxima[name] = value

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate *seconds* of wall-clock under timer *name*."""
        self._timer_totals[name] = self._timer_totals.get(name, 0.0) + seconds
        self._timer_counts[name] = self._timer_counts.get(name, 0) + 1

    @contextmanager
    def timeit(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into timer *name* (always on; see
        :func:`repro.obs.profile.phase` for the opt-in variant)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    # -- owned families ------------------------------------------------------
    def add_gauges(self, readers: Mapping[str, GaugeReader]) -> None:
        """Register ``{gauge name: reader}`` (replacing earlier readers)."""
        self._gauges.update(readers)

    def remove_gauges(self, readers: Mapping[str, GaugeReader]) -> None:
        """Unregister each gauge whose reader is still the one in *readers*.

        A newer owner that re-registered a name keeps its reader.
        """
        for name, read in readers.items():
            if self._gauges.get(name) is read:
                del self._gauges[name]

    def histogram(
        self,
        name: str,
        bounds: Sequence[float],
        labels: Sequence[str] = (),
        help: str = "",
    ) -> Histogram:
        """The histogram family *name*, created with *bounds* on first use."""
        family = self._histograms.get(name)
        if family is None:
            family = self._histograms[name] = Histogram(name, bounds, labels, help)
        return family

    # -- readers -------------------------------------------------------------
    def gauge_value(self, name: str) -> Optional[float]:
        """The live value of gauge *name* (``None`` if unregistered)."""
        read = self._gauges.get(name)
        return None if read is None else read()

    def counter(self, name: str) -> int:
        """Current value of counter *name* (0 if never incremented)."""
        return self._counters.get(name, 0)

    def timer(self, name: str) -> tuple[int, float]:
        """``(calls, total_seconds)`` for timer *name*."""
        return self._timer_counts.get(name, 0), self._timer_totals.get(name, 0.0)

    def maximum(self, name: str) -> int:
        """Current high-water mark *name* (0 if never observed)."""
        return self._maxima.get(name, 0)

    def snapshot(self) -> dict:
        """A deep, sorted copy of the scalar families — safe to mutate or diff.

        Gauges and histograms are read through :meth:`gauge_value` and
        their families; this shape is what serving workers piggyback.

        Shape::

            {"counters": {name: int},
             "timers":   {name: {"calls": int, "total_s": float}},
             "maxima":   {name: int}}
        """
        return {
            "counters": dict(sorted(self._counters.items())),
            "timers": {
                name: {
                    "calls": self._timer_counts[name],
                    "total_s": self._timer_totals[name],
                }
                for name in sorted(self._timer_totals)
            },
            "maxima": dict(sorted(self._maxima.items())),
        }

    def absorb(self, report: Mapping) -> None:
        """Add a :func:`snapshot_delta` *report* in; maxima take the max."""
        for name, value in report["counters"].items():
            self.inc(name, value)
        totals, counts = self._timer_totals, self._timer_counts
        for name, entry in report["timers"].items():
            totals[name] = totals.get(name, 0.0) + entry["total_s"]
            counts[name] = counts.get(name, 0) + entry["calls"]
        for name, value in report["maxima"].items():
            self.observe_max(name, value)

    def reset(self) -> None:
        """Zero every recorded metric (tests; between measurement windows).

        Gauges are live state, not records: their readers stay registered.
        """
        self._clear_scalars()
        for family in list(self._histograms.values()):
            family.reset()

    def _clear_scalars(self) -> None:
        """Zero the counters, timers and maxima (plain dicts: no lock)."""
        self._counters.clear()
        self._timer_totals.clear()
        self._timer_counts.clear()
        self._maxima.clear()

    def prometheus(self) -> str:
        """Every family in Prometheus text exposition format.

        Counters render as ``<name>_total``, timers as a
        ``_seconds_total`` / ``_calls_total`` counter pair, maxima as
        ``<name>_max`` gauges, gauges under their own name and
        histograms as classic cumulative ``_bucket``/``_count``/``_sum``
        series; every metric name is ``repro_`` plus the dotted name
        with ``.`` and ``-`` turned into ``_``.
        """
        snap = self.snapshot()
        samples: list[tuple[str, str, object]] = []
        for name, value in snap["counters"].items():
            samples.append((f"{_metric_name(name)}_total", "counter", value))
        for name, entry in snap["timers"].items():
            base = _metric_name(name)
            samples.append((f"{base}_seconds_total", "counter", entry["total_s"]))
            samples.append((f"{base}_calls_total", "counter", entry["calls"]))
        for name, value in snap["maxima"].items():
            samples.append((f"{_metric_name(name)}_max", "gauge", value))
        for name, read in sorted(self._gauges.items()):
            value = read()
            if value is not None:
                samples.append((_metric_name(name), "gauge", value))
        lines: list[str] = []
        for metric, kind, value in samples:
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {value}")
        for name in sorted(self._histograms):
            lines.extend(self._histograms[name]._exposition())
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        """Human-readable snapshot, one metric per line."""
        snap = self.snapshot()
        lines = []
        if snap["counters"]:
            lines.append("counters:")
            lines.extend(
                f"  {name:<40} {value}"
                for name, value in snap["counters"].items()
            )
        if snap["timers"]:
            lines.append("timers:")
            lines.extend(
                f"  {name:<40} {entry['calls']:>8} call(s) "
                f"{entry['total_s'] * 1e3:>10.3f} ms"
                for name, entry in snap["timers"].items()
            )
        if snap["maxima"]:
            lines.append("maxima:")
            lines.extend(
                f"  {name:<40} {value}" for name, value in snap["maxima"].items()
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"


def _metric_name(raw: str) -> str:
    """A ``serve.worker.failures``-style name as a Prometheus metric name."""
    return "repro_" + raw.replace(".", "_").replace("-", "_")


def _escape(value: str) -> str:
    """Escape a Prometheus label value (backslash, quote, newline)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_float(value: float) -> str:
    """A compact, locale-free float rendering for exposition lines."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


#: The process-wide registry every instrumented call site writes to.
METRICS = MetricsRegistry()

# A forked child (a serving worker) starts its scalar record empty, so an
# inherited high-water mark cannot hide its own lower marks.  Histograms
# are left alone: a lock may have been held when the process forked.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=METRICS._clear_scalars)


def snapshot() -> dict:
    """Snapshot of the global registry (see :meth:`MetricsRegistry.snapshot`)."""
    return METRICS.snapshot()


def snapshot_delta(current: Mapping, baseline: Mapping) -> dict:
    """What was recorded from *baseline* to *current*, in the snapshot shape.

    Counters and timers carry their growth, maxima that rose their new
    value; chained reports add up to the whole run.
    """
    counters = {
        name: value - baseline["counters"].get(name, 0)
        for name, value in current["counters"].items()
        if value > baseline["counters"].get(name, 0)
    }
    timers = {}
    for name, entry in current["timers"].items():
        old = baseline["timers"].get(name, {"calls": 0, "total_s": 0.0})
        if entry["calls"] > old["calls"]:
            timers[name] = {
                "calls": entry["calls"] - old["calls"],
                "total_s": entry["total_s"] - old["total_s"],
            }
    maxima = {
        name: value
        for name, value in current["maxima"].items()
        if value > baseline["maxima"].get(name, 0)
    }
    return {"counters": counters, "timers": timers, "maxima": maxima}


def reset_metrics() -> None:
    """Reset the global registry (tests and ``repro stats --reset``)."""
    METRICS.reset()
