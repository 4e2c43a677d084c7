"""runtime.ENGINES: the one fixed, ordered list of engine classes."""

import json

from repro.__main__ import main
from repro.runtime import ENGINES
from repro.runtime.engines import BackendEngine, CompiledBatchEngine

ORDER = ["interpreted", "compiled-batch", "event-driven", "grl-circuit"]


class TestStockRegistry:
    def test_registration_order_is_pinned(self):
        assert [engine.name for engine in ENGINES] == ORDER
        assert all(issubclass(engine, BackendEngine) for engine in ENGINES)

    def test_create_hands_out_fresh_instances(self):
        first, second = ([engine() for engine in ENGINES] for _ in range(2))
        assert all(a is not b for a, b in zip(first, second))
        assert type(first[1]) is type(second[1]) is CompiledBatchEngine

    def test_create_all_capability_filter(self):
        trimmed = [engine for engine in ENGINES if not engine.cycle_accurate]
        assert [engine.name for engine in trimmed] == ORDER[:3]

    def test_capability_flags(self):
        flags = {engine.name: engine.cycle_accurate for engine in ENGINES}
        assert flags == {name: name == "grl-circuit" for name in ORDER}

    def test_describe_shape(self, capsys):
        assert main(["runtime", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"engines", "cache"}
        assert payload["engines"] == [
            {"name": name, "cycle_accurate": name == "grl-circuit"}
            for name in ORDER
        ]
        assert {"plan", "result", "native_mode", "numba_available"} <= set(
            payload["cache"]
        )
