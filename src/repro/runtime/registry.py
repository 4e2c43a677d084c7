"""EngineRegistry: one dispatch surface for every execution backend.

Registration order is the conformance report column order.  Engines
register by factory, so every :meth:`EngineRegistry.create` hands out a
fresh instance and concurrent users never share mutable oracle state.

Selection never string-compares engine names outside this module: serve
pools, the conformance CLI, and ``python -m repro`` all resolve a policy
string (an engine ``name``, its short ``key`` alias, or ``"auto"``)
through :meth:`EngineRegistry.resolve` and then talk to the returned
:class:`~repro.runtime.engines.BackendEngine` object.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable

from .engines import (
    BackendEngine,
    CompiledBatchEngine,
    EventDrivenEngine,
    GRLCircuitEngine,
    InterpretedEngine,
)

#: The serving selection policy: the registry's one batchable engine.
AUTO = "auto"


class EngineRegistry:
    """Ordered backend factories plus capability-driven selection."""

    def __init__(self) -> None:
        self._factories: "OrderedDict[str, Callable[[], BackendEngine]]" = (
            OrderedDict()
        )
        self._aliases: dict[str, str] = {}

    # -- registration ---------------------------------------------------

    def register(
        self, factory: Callable[[], BackendEngine]
    ) -> Callable[[], BackendEngine]:
        """Register a backend factory (usable as a class decorator).

        The factory's product must carry a unique ``name``; its ``key``
        (when distinct) becomes an alias.  Registration order is
        preserved and becomes the report column order.
        """
        probe = factory()
        name = probe.name
        if name in self._factories or name in self._aliases:
            raise ValueError(f"oracle {name!r} already registered")
        key = getattr(probe, "key", name)
        if key != name:
            owner = self._aliases.get(key)
            if (owner is not None and owner != name) or key in self._factories:
                raise ValueError(
                    f"engine key {key!r} already taken by {owner or key!r}"
                )
        self._factories[name] = factory
        if key != name:
            self._aliases[key] = name
        return factory

    # -- lookup ---------------------------------------------------------

    def names(self) -> list[str]:
        """Registered engine names, in registration order."""
        return list(self._factories)

    def canonical(self, name: str) -> str:
        """Resolve a name or key alias to the registered engine name."""
        if name in self._factories:
            return name
        target = self._aliases.get(name)
        if target is None:
            known = ", ".join(
                sorted(set(self._factories) | set(self._aliases))
            )
            raise ValueError(
                f"unknown engine {name!r}; known engines: {known} "
                f"(or the {AUTO!r} policy)"
            )
        return target

    def create(self, name: str) -> BackendEngine:
        """A fresh instance of the named (or aliased) engine."""
        return self._factories[self.canonical(name)]()

    def create_all(
        self, *, include_cycle_accurate: bool = True
    ) -> list[BackendEngine]:
        """Fresh instances of every engine, registration order.

        ``include_cycle_accurate=False`` drops gate-level models (the
        capability behind the historical ``include_grl`` toggle).
        """
        engines = [factory() for factory in self._factories.values()]
        if not include_cycle_accurate:
            engines = [
                e for e in engines if not e.capabilities.cycle_accurate
            ]
        return engines

    # -- serving selection ----------------------------------------------

    def serving_engines(self) -> list[BackendEngine]:
        """Fresh instances of every batchable engine, registration order."""
        return [
            engine
            for engine in (f() for f in self._factories.values())
            if engine.capabilities.batchable
        ]

    def serving_keys(self) -> list[str]:
        """Short keys of the batchable engines (CLI ``--engine`` choices)."""
        return [engine.key for engine in self.serving_engines()]

    def resolve(self, policy: str = AUTO) -> BackendEngine:
        """The batchable engine *policy* selects in this process.

        ``auto`` is the registry's one batchable engine.  An explicit
        name or key pins one engine and raises :class:`ValueError` when
        it is not batchable or not available.
        """
        if policy == AUTO:
            engines = self.serving_engines()
            if len(engines) != 1:
                raise ValueError(
                    f"the {AUTO!r} policy needs exactly one batchable engine; "
                    f"registered: {[engine.key for engine in engines]}"
                )
            return engines[0]
        engine = self.create(policy)
        if not engine.capabilities.batchable:
            raise ValueError(
                f"engine {engine.name!r} is not batchable; serving engines: "
                + ", ".join(self.serving_keys())
            )
        reason = engine.available()
        if reason is not None:
            raise ValueError(f"engine {engine.name!r} unavailable: {reason}")
        return engine

    def describe(self) -> list[dict]:
        """Capability records for every engine (CLI ``runtime`` listing)."""
        return [factory().describe() for factory in self._factories.values()]


#: The process-wide registry, pre-loaded with the four stock backends.
ENGINES = EngineRegistry()
for _factory in (
    InterpretedEngine,
    CompiledBatchEngine,
    EventDrivenEngine,
    GRLCircuitEngine,
):
    ENGINES.register(_factory)
del _factory
