"""Tests for the runtime metrics registry and profiling hooks."""

import time

from repro.obs.metrics import METRICS, MetricsRegistry, reset_metrics, snapshot_delta
from repro.obs.profile import phase, profiled, profiling_enabled


class TestRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.inc("b")
        assert reg.counter("a") == 5
        assert reg.counter("b") == 1
        assert reg.counter("missing") == 0

    def test_observe_max(self):
        reg = MetricsRegistry()
        reg.observe_max("depth", 3)
        reg.observe_max("depth", 9)
        reg.observe_max("depth", 5)
        assert reg.maximum("depth") == 9
        assert reg.maximum("missing") == 0

    def test_timers(self):
        reg = MetricsRegistry()
        reg.add_time("t", 0.25)
        reg.add_time("t", 0.75)
        calls, total = reg.timer("t")
        assert calls == 2
        assert total == 1.0
        assert reg.timer("missing") == (0, 0.0)

    def test_timeit_records_wall_clock(self):
        reg = MetricsRegistry()
        with reg.timeit("sleep"):
            time.sleep(0.01)
        calls, total = reg.timer("sleep")
        assert calls == 1
        assert total >= 0.005

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.add_time("t", 0.5)
        reg.observe_max("m", 7)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["timers"] == {"t": {"calls": 1, "total_s": 0.5}}
        assert snap["maxima"] == {"m": 7}

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.inc("c")
        snap = reg.snapshot()
        reg.inc("c")
        assert snap["counters"]["c"] == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.add_time("t", 1.0)
        reg.observe_max("m", 4)
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "timers": {}, "maxima": {}}

    def test_absorbed_deltas_add_up_to_the_whole_run(self):
        worker, frontend = MetricsRegistry(), MetricsRegistry()
        worker.inc("inherited", 9)
        worker.observe_max("m", 6)
        frontend.inc("c", 1)
        reported = worker.snapshot()
        for amount, seconds, peak in [(2, 0.5, 4), (3, 0.25, 8), (0, 0.0, 7)]:
            if amount:
                worker.inc("c", amount)
                worker.add_time("t", seconds)
            worker.observe_max("m", peak)
            current = worker.snapshot()
            frontend.absorb(snapshot_delta(current, reported))
            reported = current
        assert frontend.snapshot() == {
            "counters": {"c": 6},
            "timers": {"t": {"calls": 2, "total_s": 0.75}},
            "maxima": {"m": 8},
        }
        # Nothing recorded since the last report: an empty report.
        assert snapshot_delta(reported, reported) == {
            "counters": {},
            "timers": {},
            "maxima": {},
        }

    def test_render_mentions_everything(self):
        reg = MetricsRegistry()
        reg.inc("my.counter", 3)
        reg.add_time("my.timer", 0.5)
        reg.observe_max("my.peak", 8)
        text = reg.render()
        assert "my.counter" in text
        assert "my.timer" in text
        assert "my.peak" in text


class TestGlobalRegistry:
    def test_backends_populate_global_metrics(self):
        from repro.network.builder import NetworkBuilder
        from repro.network.compile_plan import evaluate_batch
        from repro.network.events import simulate

        reset_metrics()
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("m", b.min(x, y))
        net = b.build()
        evaluate_batch(net, [(1, 2), (3, 0)])
        simulate(net, {"x": 1, "y": 2})
        assert METRICS.counter("evaluate_batch.calls") == 1
        assert METRICS.counter("evaluate_batch.volleys") == 2
        assert METRICS.counter("plan.runs") == 1
        assert METRICS.counter("events.runs") == 1
        assert METRICS.counter("events.spikes") == 3
        assert METRICS.maximum("events.queue_peak") >= 1
        reset_metrics()


class TestProfiling:
    def test_disabled_by_default(self):
        assert not profiling_enabled()

    def test_phase_is_noop_when_disabled(self):
        reset_metrics()
        with phase("nothing"):
            pass
        assert METRICS.timer("phase.nothing") == (0, 0.0)

    def test_profiled_records_phases(self):
        reset_metrics()
        with profiled():
            assert profiling_enabled()
            with phase("work"):
                time.sleep(0.001)
        assert not profiling_enabled()
        calls, total = METRICS.timer("phase.work")
        assert calls == 1
        assert total > 0.0
        reset_metrics()

    def test_profiled_nests(self):
        with profiled():
            with profiled():
                assert profiling_enabled()
            assert profiling_enabled()
        assert not profiling_enabled()

    def test_profiled_evaluate_batch_attributes_phases(self):
        from repro.network.builder import NetworkBuilder
        from repro.network.compile_plan import evaluate_batch

        reset_metrics()
        b = NetworkBuilder()
        x, y = b.inputs("x", "y")
        b.output("m", b.inc(b.min(x, y), 2))
        net = b.build()
        with profiled():
            evaluate_batch(net, [(1, 2)])
        for name in (
            "phase.evaluate_batch.plan",
            "phase.evaluate_batch.encode",
            "phase.evaluate_batch.run",
        ):
            calls, _ = METRICS.timer(name)
            assert calls == 1, name
        calls, _ = METRICS.timer("plan.group.min")
        assert calls >= 1
        reset_metrics()
