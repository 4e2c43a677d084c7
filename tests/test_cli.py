"""Tests for the ``python -m repro`` entry point."""

import json

from repro.__main__ import main


class TestCli:
    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "[ok]" in out
        assert "FAIL" not in out.replace("CHECK(S) FAILED", "")

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro 1.0.0" in out
        assert "repro.core" in out
        assert "repro.racelogic" in out

    def test_default_is_info(self, capsys):
        assert main([]) == 0
        assert "repro 1.0.0" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2
        out = capsys.readouterr().out
        assert "unknown command" in out
        assert "conformance" in out
        assert "trace" in out
        assert "stats" in out
        assert "serve" in out
        assert "loadgen" in out
        # The engine listing is part of `stats`; `runtime` is no command.
        assert "runtime" not in out
        assert main(["runtime"]) == 2
        assert "unknown command 'runtime'" in capsys.readouterr().out

    def test_conformance_smoke(self, capsys):
        code = main(
            ["conformance", "--seed", "0", "--count", "3", "--smoke"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "conformance sweep: seeds 0..2" in out
        assert "zero cross-backend disagreements" in out
        assert "all killed" in out
        assert "verdict: OK" in out

    def test_trace_smoke(self, capsys, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                "--seed",
                "0",
                "--smoke",
                "--jsonl",
                str(jsonl),
                "--chrome",
                str(chrome),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "byte-identical" in out
        assert "grl-circuit" in out
        # Valid JSONL: every line parses with the canonical keys.
        lines = jsonl.read_text().splitlines()
        assert lines
        for line in lines:
            assert set(json.loads(line)) == {"t", "node", "kind", "name", "cause"}
        # Valid Chrome trace: instant events present.
        doc = json.loads(chrome.read_text())
        assert any(e.get("ph") == "i" for e in doc["traceEvents"])

    def test_trace_is_deterministic_per_seed(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["trace", "--seed", "5", "--smoke", "--jsonl", str(a)]) == 0
        assert main(["trace", "--seed", "5", "--smoke", "--jsonl", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_stats_exercise(self, capsys):
        assert main(["stats", "--exercise", "--reset"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "evaluate_batch.calls" in out
        assert "events.runs" in out
        assert "result cache:" in out
        assert "metrics reset" in out

    def test_stats_json(self, capsys):
        assert main(["stats", "--exercise", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" in payload
        assert payload["metrics"]["counters"]["evaluate_batch.calls"] >= 1
        assert set(payload["cache"]) == {"result"}

    def test_stats_json_includes_serve_section(self, capsys):
        assert main(["stats", "--json"]) == 0
        serve = json.loads(capsys.readouterr().out)["serve"]
        assert "queue_depth" in serve
        assert "batch_size" in serve and "buckets" in serve["batch_size"]
        for key in ("p50_ms", "p90_ms", "p99_ms"):
            assert key in serve["latency"]
        assert "rejected" in serve and "worker_restarts" in serve

    def test_stats_json_serve_reflects_traffic(self, capsys):
        from repro.serve import (
            BatchPolicy,
            InlineWorkerPool,
            ModelRegistry,
            TNNService,
        )
        from repro.serve.demo import demo_column

        registry = ModelRegistry()
        registry.register(demo_column(0, smoke=True)[0], name="demo")
        service = TNNService(
            registry,
            InlineWorkerPool(registry.programs()),
            policy=BatchPolicy(max_batch=4, max_wait_s=0.001),
        )
        try:
            futures = [service.submit("demo", (i, 0)) for i in range(8)]
            for f in futures:
                f.result(timeout=10)
        finally:
            service.close()
        assert main(["stats", "--json"]) == 0
        serve = json.loads(capsys.readouterr().out)["serve"]
        assert serve["batch_size"]["rows"] >= 8
        assert serve["latency"]["count"] >= 8

    def test_stats_json_training_section(self, capsys):
        assert main(["stats", "--json"]) == 0
        training = json.loads(capsys.readouterr().out)["training"]
        for key in ("steps", "snapshots", "promotions", "last_accuracy"):
            assert key in training
        for key in ("accepted", "dropped", "depth"):
            assert key in training["queue"]

    def test_serve_and_loadgen_help(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--help"])
        assert exit_info.value.code == 0
        assert "micro-batched" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            main(["loadgen", "--help"])
        assert exit_info.value.code == 0
        assert "byte-check" in capsys.readouterr().out

    def test_conformance_flags(self, capsys):
        code = main(
            [
                "conformance",
                "--seed",
                "1",
                "--count",
                "2",
                "--smoke",
                "--no-grl",
                "--no-faults",
                "--no-shrink",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fault self-check" not in out
        assert "verdict: OK" in out

    def test_kernels_lists_registry(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "registered s-t kernels (9)" in out
        for name in (
            "interval-shift",
            "interval-intersect",
            "latch",
            "barrier",
            "router",
            "accumulator",
        ):
            assert name in out

    def test_kernels_demo_runs_all_backends(self, capsys):
        assert main(["kernels", "--demo", "latch"]) == 0
        out = capsys.readouterr().out
        assert "kernel latch" in out
        assert "byte-identical across 4 backend(s)" in out
        for backend in (
            "interpreted",
            "compiled-batch",
            "event-driven",
            "grl-circuit",
        ):
            assert backend in out
        assert "function-table contract" in out
        assert "q:" in out and "missed:" in out

    def test_kernels_demo_no_grl(self, capsys):
        assert main(["kernels", "--demo", "router", "--no-grl"]) == 0
        out = capsys.readouterr().out
        assert "byte-identical across 3 backend(s)" in out

    def test_kernels_demo_unknown_name(self, capsys):
        assert main(["kernels", "--demo", "bogus"]) == 2
        out = capsys.readouterr().out
        assert "unknown kernel" in out
        assert "interval-shift" in out

    def test_conformance_family_pin(self, capsys):
        code = main(
            [
                "conformance",
                "--seed",
                "0",
                "--count",
                "2",
                "--smoke",
                "--family",
                "kernels",
                "--no-faults",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "zero cross-backend disagreements" in out

    def test_conformance_family_unknown(self, capsys):
        code = main(
            ["conformance", "--count", "1", "--family", "bogus"]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "unknown family" in out

    def test_train_smoke_end_to_end(self, capsys, tmp_path):
        lineage_path = tmp_path / "lineage.json"
        code = main(
            [
                "train",
                "--smoke",
                "--lineage-out",
                str(lineage_path),
                "--json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["final_accuracy"] > report["untrained_accuracy"]
        assert report["snapshots"] >= 2
        assert report["curve"][0]["steps"] == 0  # the seed record
        assert report["curve"][-1]["model"] == report["final_model"]

        from repro.train import ModelLineage

        lineage = ModelLineage.load(str(lineage_path))
        assert lineage.head() == report["final_model"]

        code = main(["train", "--show", str(lineage_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "lineage 'digits-smoke@live'" in out
        assert report["final_model"][:12] in out

    def test_train_source_arity_mismatch(self, capsys, tmp_path):
        from repro.train import TrainingItem, save_items

        bad = tmp_path / "bad.ndjson"
        save_items([TrainingItem(volley=(0, 1))], str(bad))
        assert main(["train", "--smoke", "--source", str(bad)]) == 2
        assert "takes 10 lines" in capsys.readouterr().out

    def test_train_show_missing_file(self, capsys, tmp_path):
        assert main(["train", "--show", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().out

    def test_unknown_command_mentions_kernels(self, capsys):
        assert main(["bogus"]) == 2
        assert "kernels" in capsys.readouterr().out
