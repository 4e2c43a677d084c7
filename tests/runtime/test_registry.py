"""EngineRegistry: registration order, aliases, and the auto policy."""

import pytest

from repro.runtime import AUTO, ENGINES, EngineRegistry
from repro.runtime.engines import (
    BackendEngine,
    CompiledBatchEngine,
    EngineCapabilities,
    InterpretedEngine,
)


class TestStockRegistry:
    def test_registration_order_is_pinned(self):
        assert ENGINES.names() == [
            "interpreted",
            "compiled-batch",
            "event-driven",
            "grl-circuit",
        ]

    def test_serving_keys_are_the_batchable_engines(self):
        assert ENGINES.serving_keys() == ["int64"]

    def test_key_aliases_resolve_to_names(self):
        assert ENGINES.canonical("int64") == "compiled-batch"
        assert ENGINES.canonical("event") == "event-driven"
        assert ENGINES.canonical("grl") == "grl-circuit"
        with pytest.raises(ValueError, match="unknown engine 'native'"):
            ENGINES.canonical("native")

    def test_unknown_engine_raises_with_known_list(self):
        with pytest.raises(ValueError, match="unknown engine 'tpu'"):
            ENGINES.canonical("tpu")

    def test_create_hands_out_fresh_instances(self):
        first = ENGINES.create("compiled-batch")
        second = ENGINES.create("int64")
        assert first is not second
        assert type(first) is type(second) is CompiledBatchEngine

    def test_create_all_capability_filter(self):
        full = ENGINES.create_all()
        assert [e.name for e in full] == ENGINES.names()
        trimmed = ENGINES.create_all(include_cycle_accurate=False)
        assert all(not e.capabilities.cycle_accurate for e in trimmed)
        assert "grl-circuit" not in [e.name for e in trimmed]

    def test_capability_flags(self):
        by_name = {e.name: e for e in ENGINES.create_all()}
        assert by_name["compiled-batch"].capabilities.batchable
        assert not by_name["interpreted"].capabilities.batchable
        grl = by_name["grl-circuit"].capabilities
        assert grl.cycle_accurate
        assert not grl.supports_zero_source_const

    def test_describe_shape(self):
        records = ENGINES.describe()
        assert len(records) == 4
        for record in records:
            assert {"name", "key", "available", "capabilities"} <= set(record)
        batch = next(r for r in records if r["name"] == "compiled-batch")
        assert "mode" in batch and "numba_available" in batch


class TestResolve:
    def test_auto_resolves_to_the_one_batch_engine(self):
        engine = ENGINES.resolve(AUTO)
        assert (engine.name, engine.key) == ("compiled-batch", "int64")
        assert engine.available() is None

    def test_explicit_key_pins_the_engine(self):
        assert ENGINES.resolve("int64").name == "compiled-batch"
        assert ENGINES.resolve("compiled-batch").key == "int64"

    def test_non_batchable_engine_is_rejected(self):
        with pytest.raises(ValueError, match="not batchable"):
            ENGINES.resolve("interpreted")
        with pytest.raises(ValueError, match="not batchable"):
            ENGINES.resolve("grl")

    def test_auto_needs_exactly_one_batchable_engine(self):
        registry = EngineRegistry()

        class FirstEngine(BackendEngine):
            name = "first"
            key = "first"
            capabilities = EngineCapabilities(batchable=True)

        class SecondEngine(FirstEngine):
            name = "second"
            key = "second"

        with pytest.raises(ValueError, match="exactly one"):
            registry.resolve(AUTO)
        registry.register(FirstEngine)
        assert registry.resolve(AUTO).name == "first"
        registry.register(SecondEngine)
        with pytest.raises(ValueError, match="exactly one"):
            registry.resolve(AUTO)


class TestRegistration:
    def test_duplicate_name_raises_legacy_message(self):
        registry = EngineRegistry()
        registry.register(InterpretedEngine)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(InterpretedEngine)

    def test_key_collision_raises(self):
        registry = EngineRegistry()

        class FirstEngine(BackendEngine):
            name = "first"
            key = "shared"

        class SecondEngine(BackendEngine):
            name = "second"
            key = "shared"

        registry.register(FirstEngine)
        with pytest.raises(ValueError, match="already taken"):
            registry.register(SecondEngine)

    def test_custom_engine_registers_and_resolves(self):
        registry = EngineRegistry()

        class ToyEngine(BackendEngine):
            name = "toy"
            key = "t"
            capabilities = EngineCapabilities(batchable=True)

        registry.register(ToyEngine)
        assert registry.names() == ["toy"]
        assert registry.canonical("t") == "toy"
        assert registry.resolve("t").name == "toy"
