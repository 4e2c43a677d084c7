"""Tests for the bucketed histogram series and the registry's families."""

import pytest

from repro.obs.hist import BUCKET_BOUNDS_S, EPOCH_S, N_EPOCHS, LatencyHistogram
from repro.obs.metrics import MetricsRegistry


def latency_family():
    return MetricsRegistry().histogram(
        "serve.latency_seconds",
        BUCKET_BOUNDS_S,
        ("model", "stage", "outcome"),
        "Served request latency by model, stage, and outcome.",
    )


class TestBuckets:
    def test_bounds_are_geometric_and_monotone(self):
        assert BUCKET_BOUNDS_S[0] == pytest.approx(1e-4)
        for low, high in zip(BUCKET_BOUNDS_S, BUCKET_BOUNDS_S[1:]):
            assert high == pytest.approx(low * 2.0)
        assert BUCKET_BOUNDS_S[-1] > 1.0  # covers second-scale latencies

    def test_observation_lands_in_the_right_bucket(self):
        h = LatencyHistogram(now=0.0)
        h.observe(1.5e-4, now=0.0)  # between bound 0 (1e-4) and 1 (2e-4)
        counts = h.window_counts(now=0.0)
        assert counts[1] == 1 and sum(counts) == 1

    def test_overflow_bucket_catches_slow_requests(self):
        h = LatencyHistogram(now=0.0)
        h.observe(60.0, now=0.0)
        counts = h.window_counts(now=0.0)
        assert counts[-1] == 1
        # The overflow quantile floors at the largest finite bound.
        assert h.quantile(0.99, now=0.0) == BUCKET_BOUNDS_S[-1]


class TestQuantiles:
    def test_empty_histogram_reports_zero(self):
        h = LatencyHistogram(now=0.0)
        assert h.quantile(0.5, now=0.0) == 0.0
        snap = h.snapshot(now=0.0)
        assert snap["count"] == 0 and snap["p99_ms"] == 0.0

    def test_quantile_interpolates_within_the_bucket(self):
        h = LatencyHistogram(now=0.0)
        for _ in range(100):
            h.observe(3e-4, now=0.0)  # bucket (2e-4, 4e-4]
        p50 = h.quantile(0.50, now=0.0)
        assert 2e-4 < p50 <= 4e-4

    def test_quantiles_are_ordered(self):
        h = LatencyHistogram(now=0.0)
        for i in range(200):
            h.observe(1e-4 * (1 + i % 50), now=0.0)
        p50, p90, p99 = (
            h.quantile(q, now=0.0) for q in (0.50, 0.90, 0.99)
        )
        assert p50 <= p90 <= p99

    def test_snapshot_shape(self):
        h = LatencyHistogram(now=0.0)
        h.observe(0.002, now=0.0)
        snap = h.snapshot(now=0.0)
        assert set(snap) == {
            "count", "window", "sum_s", "p50_ms", "p90_ms", "p99_ms", "max_ms"
        }
        assert snap["count"] == snap["window"] == 1
        assert snap["max_ms"] == pytest.approx(2.0)


class TestEpochRotation:
    def test_window_forgets_but_lifetime_does_not(self):
        h = LatencyHistogram(now=0.0)
        h.observe(0.001, now=0.0)
        # After more than N_EPOCHS * EPOCH_S, the observation has rotated out.
        assert sum(h.window_counts(now=N_EPOCHS * EPOCH_S + 1.0)) == 0
        assert h.count == 1  # lifetime count survives the window
        assert sum(h.lifetime_counts()) == 1  # and so do lifetime buckets

    def test_window_spans_recent_epochs(self):
        h = LatencyHistogram(now=0.0)
        h.observe(0.001, now=0.0)
        h.observe(0.001, now=1.5 * EPOCH_S)  # next epoch
        # Both epochs are still inside the window.
        assert sum(h.window_counts(now=(N_EPOCHS - 0.5) * EPOCH_S)) == 2
        # One rotation later the first epoch has left it.
        assert sum(h.window_counts(now=(N_EPOCHS + 0.5) * EPOCH_S)) == 1

    def test_idle_gap_snaps_forward_instead_of_spinning(self):
        h = LatencyHistogram(now=0.0)
        h.observe(0.001, now=0.0)
        h.observe(0.002, now=1e9)  # a huge idle gap must not loop 1e8 times
        assert sum(h.window_counts(now=1e9)) == 1

    def test_burst_then_quiet_keeps_the_tail(self):
        """The reservoir bias this design fixes: bursts must not evict."""
        h = LatencyHistogram(now=0.0)
        h.observe(1.0, now=0.0)  # one slow request
        for _ in range(10_000):  # then a burst of fast ones, same window
            h.observe(1e-4, now=1.0)
        assert h.quantile(1.0, now=1.0) >= 0.5  # the tail is still there


class TestHistogramFamily:
    def test_series_keyed_by_model_stage_outcome(self):
        family = latency_family()
        family.observe(0.001, "a", "total", "ok", now=0.0)
        family.observe(0.002, "a", "total", "deadline", now=0.0)
        family.observe(0.003, "b", "queue", "ok", now=0.0)
        snap = family.snapshot(now=0.0)
        assert len(snap) == 3
        assert snap[("a", "total", "ok")]["count"] == 1

    def test_merged_is_exact_bucket_summation(self):
        family = latency_family()
        for model in ("a", "b"):
            for _ in range(10):
                family.observe(1.5e-4, model, "total", "ok", now=0.0)
        merged = family.merged(stage="total", outcome="ok", now=0.0)
        snap = merged.snapshot(now=0.0)
        assert snap["count"] == 20 and snap["window"] == 20
        # All mass in one bucket: the merged quantile stays in its range.
        assert 0.1 < snap["p99_ms"] <= 0.2
        assert merged.lifetime_counts()[1] == 20

    def test_merged_filters_by_outcome(self):
        family = latency_family()
        family.observe(0.001, "a", "total", "ok", now=0.0)
        family.observe(0.5, "a", "total", "deadline", now=0.0)
        assert family.merged(outcome="ok", now=0.0).count == 1
        assert family.merged(now=0.0).count == 2

    def test_registry_reset_clears_series_but_keeps_the_family(self):
        registry = MetricsRegistry()
        family = registry.histogram("h", (1, 2))
        family.observe(1, now=0.0)
        registry.reset()
        assert not family.snapshot(now=0.0)
        assert registry.histogram("h", (1, 2)) is family

    def test_one_lock_guards_concurrent_observers(self):
        import os
        import sys
        import threading

        family = latency_family()
        n_threads = 2 * (os.cpu_count() or 2)

        def hammer():
            for _ in range(2_000):
                family.observe(0.001, "m", "total", "ok")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        merged = family.merged()
        # A lost update would leave a bucket or the count short.
        assert merged.count == sum(merged.lifetime_counts()) == 2_000 * n_threads


class TestPrometheusLines:
    def exposition(self, registry):
        return registry.prometheus().splitlines()

    def test_exposition_format(self):
        registry = MetricsRegistry()
        family = registry.histogram(
            "serve.latency_seconds", BUCKET_BOUNDS_S, ("model",), "Latency."
        )
        for seconds in (1e-4, 2e-3, 0.5):
            family.observe(seconds, "demo", now=0.0)
        lines = self.exposition(registry)
        assert lines[0] == "# HELP repro_serve_latency_seconds Latency."
        assert lines[1] == "# TYPE repro_serve_latency_seconds histogram"
        buckets = [l for l in lines if "_bucket{" in l]
        # One line per finite bound plus +Inf.
        assert len(buckets) == len(BUCKET_BOUNDS_S) + 1
        assert buckets[-1].startswith(
            'repro_serve_latency_seconds_bucket{model="demo",le="+Inf"}'
        )
        # Cumulative counts are monotone and end at the total.
        values = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert values == sorted(values)
        assert values[-1] == 3
        assert 'repro_serve_latency_seconds_count{model="demo"} 3' in lines
        assert any(l.startswith("repro_serve_latency_seconds_sum{") for l in lines)

    def test_label_escaping(self):
        registry = MetricsRegistry()
        family = registry.histogram("lat", BUCKET_BOUNDS_S, ("model",))
        family.observe(0.001, 'we"ird\\name', now=0.0)
        assert any('model="we\\"ird\\\\name"' in l for l in self.exposition(registry))

    def test_buckets_are_lifetime_so_inf_equals_count(self):
        """The window rolls; the exposition's buckets must not."""
        registry = MetricsRegistry()
        family = registry.histogram("lat", BUCKET_BOUNDS_S, ("model",))
        family.observe(0.001, "m", now=0.0)
        assert family.merged(now=0.0).quantile(0.5, now=120.0) == 0.0
        lines = self.exposition(registry)
        assert 'repro_lat_bucket{model="m",le="+Inf"} 1' in lines
        assert 'repro_lat_count{model="m"} 1' in lines

    def test_unlabelled_family_renders_before_its_first_observation(self):
        registry = MetricsRegistry()
        registry.histogram("serve.batch_size", (1, 2, 4))
        lines = self.exposition(registry)
        assert 'repro_serve_batch_size_bucket{le="4"} 0' in lines
        assert "repro_serve_batch_size_count 0" in lines

    def test_every_family_has_its_own_type_line(self):
        registry = MetricsRegistry()
        registry.inc("serve.requests", 3)
        registry.add_time("plan.compile", 0.5)
        registry.observe_max("serve.queue.peak", 7)
        registry.add_gauges(
            {"serve.pending": lambda: 2, "training.last_accuracy": lambda: None}
        )
        lines = self.exposition(registry)
        for metric, kind, value in (
            ("repro_serve_requests_total", "counter", "3"),
            ("repro_plan_compile_seconds_total", "counter", "0.5"),
            ("repro_plan_compile_calls_total", "counter", "1"),
            ("repro_serve_queue_peak_max", "gauge", "7"),
            ("repro_serve_pending", "gauge", "2"),
        ):
            at = lines.index(f"# TYPE {metric} {kind}")
            assert lines[at + 1] == f"{metric} {value}"
        # A gauge whose reader answers None is left out.
        assert not any("last_accuracy" in l for l in lines)


class TestGauges:
    def test_remove_only_drops_the_owners_reader(self):
        registry = MetricsRegistry()
        first, second = {"g": lambda: 1}, {"g": lambda: 2}
        registry.add_gauges(first)
        registry.add_gauges(second)  # a newer owner takes the name
        registry.remove_gauges(first)
        assert registry.gauge_value("g") == 2
        registry.remove_gauges(second)
        assert registry.gauge_value("g") is None

    def test_gauges_survive_reset(self):
        registry = MetricsRegistry()
        registry.add_gauges({"g": lambda: 5})
        registry.reset()
        assert registry.gauge_value("g") == 5


def test_merge_bucket_counts():
    """``absorb`` is the exact merge: bucket-wise sums, window and lifetime."""
    a, b = LatencyHistogram(now=0.0), LatencyHistogram(now=0.0)
    for seconds in (1e-4, 3e-4, 60.0):
        a.observe(seconds, now=0.0)
        b.observe(seconds, now=0.0)
        b.observe(seconds, now=0.0)
    merged = LatencyHistogram(now=0.0)
    merged.absorb(a, now=0.0)
    merged.absorb(b, now=0.0)
    want = [x + y for x, y in zip(a.lifetime_counts(), b.lifetime_counts())]
    assert merged.lifetime_counts() == want == merged.window_counts(now=0.0)
    assert merged.count == 9 and merged.sum == pytest.approx(a.sum + b.sum)
    assert merged.snapshot(now=0.0)["max_ms"] == 60_000.0


def test_default_window_covers_about_a_minute():
    assert EPOCH_S * N_EPOCHS == pytest.approx(60.0)
