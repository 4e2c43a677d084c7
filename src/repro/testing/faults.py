"""Fault injection: mutants that the conformance diff must catch.

A differential harness is only as good as its ability to *notice* a
broken backend, so this module manufactures broken backends on purpose:

* **volley faults** — spike jitter (which can push a near-sentinel time
  past ``∞``), dropped lines (stuck-at-``∞``) and stuck-at-0 lines,
  applied to the volleys one victim backend sees;
* **network mutants** — structural edits (min↔max swap, ``inc`` amount
  drift, ``lt`` operand swap, source rewires) applied to the network one
  victim backend evaluates;
* **plan faults** — a compiled plan whose kernel schedule is reordered
  so a kernel runs before its producer, modelling a broken compiler
  pass.

Each fault is packaged as a :class:`FaultedOracle` — a
:class:`~repro.runtime.engines.BackendEngine` impersonating its victim —
so the ordinary conformance diff is the detector.  The self-check in
:mod:`repro.testing.conformance` injects every :data:`FAULT_CLASSES`
entry and requires the diff to flag it: a harness that cannot kill these
mutants has no teeth.

All faults are deterministic functions of their seed; jitter offsets
depend only on ``(seed, line index)`` so a volley can be shrunk without
the fault shifting under the shrinker.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..core.value import INF, MAX_FINITE, Infinity, Time
from ..ir.sorters import group_sorters
from ..network.blocks import Node
from ..network.compile_plan import (
    CompiledPlan,
    _encode_params,
    _execute_kernels,
    _kernel_reads,
    decode_matrix,
    encode_volleys,
)
from ..network.graph import Network
from ..runtime.engines import BackendEngine, CompiledBatchEngine, Outputs, Volley

# ---------------------------------------------------------------------------
# Volley faults
# ---------------------------------------------------------------------------

def jitter_volley(volley: Volley, *, jitter: int, seed: int) -> Volley:
    """Perturb each finite spike by a deterministic per-line offset.

    Offsets depend only on ``(seed, line index)``, never on the spike
    value, so shrinking a volley keeps the fault stable.  Times pushed
    below 0 clamp; times pushed past
    :data:`~repro.core.value.MAX_FINITE` saturate to ``∞`` —
    the sentinel boundary behaviour the regression tests pin down.
    """
    if jitter < 0:
        raise ValueError("jitter must be non-negative")
    out: list[Time] = []
    for index, value in enumerate(volley):
        if isinstance(value, Infinity):
            out.append(INF)
            continue
        offset = random.Random(seed ^ (index * 0x9E3779B1)).randint(-jitter, jitter)
        moved = int(value) + offset
        out.append(INF if moved > MAX_FINITE else max(0, moved))
    return tuple(out)


def drop_lines(volley: Volley, lines: Sequence[int]) -> Volley:
    """Stuck-at-``∞``: the listed lines never spike."""
    dead = set(lines)
    return tuple(INF if i in dead else v for i, v in enumerate(volley))


def stuck_at_zero(volley: Volley, lines: Sequence[int]) -> Volley:
    """Stuck-at-0: the listed lines always spike immediately."""
    stuck = set(lines)
    return tuple(0 if i in stuck else v for i, v in enumerate(volley))


# ---------------------------------------------------------------------------
# Network mutants
# ---------------------------------------------------------------------------

def _rebuild(network: Network, replacements: dict[int, Node]) -> Network:
    """A structurally edited copy of *network* (same ids, same outputs)."""
    nodes = [replacements.get(n.id, n) for n in network.nodes]
    return Network(nodes, dict(network.outputs), name=f"{network.name}*")


def mutate_min_max_swap(
    network: Network, rng: random.Random
) -> Optional[tuple[Network, str]]:
    """Flip one min into a max (or vice versa): first vs last arrival."""
    candidates = [
        n for n in network.nodes
        if n.kind in ("min", "max") and len(n.sources) >= 2
    ]
    if not candidates:
        return None
    victim = rng.choice(candidates)
    flipped = "max" if victim.kind == "min" else "min"
    mutant = _rebuild(network, {victim.id: replace(victim, kind=flipped)})
    return mutant, f"node {victim.id}: {victim.kind} -> {flipped}"


def mutate_inc_amount(
    network: Network, rng: random.Random
) -> Optional[tuple[Network, str]]:
    """Drift one delay by ±1 unit time (never below 1)."""
    candidates = [n for n in network.nodes if n.kind == "inc"]
    if not candidates:
        return None
    victim = rng.choice(candidates)
    amount = victim.amount + (1 if victim.amount == 1 else rng.choice((-1, 1)))
    mutant = _rebuild(network, {victim.id: replace(victim, amount=amount)})
    return mutant, f"node {victim.id}: inc +{victim.amount} -> +{amount}"


def mutate_lt_swap(
    network: Network, rng: random.Random
) -> Optional[tuple[Network, str]]:
    """Swap an ``lt`` race's operands: a≺b becomes b≺a."""
    candidates = [
        n for n in network.nodes
        if n.kind == "lt" and n.sources[0] != n.sources[1]
    ]
    if not candidates:
        return None
    victim = rng.choice(candidates)
    a, b = victim.sources
    mutant = _rebuild(network, {victim.id: replace(victim, sources=(b, a))})
    return mutant, f"node {victim.id}: lt{(a, b)} -> lt{(b, a)}"


def mutate_rewire(
    network: Network, rng: random.Random
) -> Optional[tuple[Network, str]]:
    """Reroute one source wire of a compute node to another earlier node."""
    candidates = [
        n for n in network.nodes if n.sources and n.id >= 2
    ]
    rng.shuffle(candidates)
    for victim in candidates:
        port = rng.randrange(len(victim.sources))
        options = [i for i in range(victim.id) if i != victim.sources[port]]
        if not options:
            continue
        new_src = rng.choice(options)
        sources = tuple(
            new_src if p == port else s for p, s in enumerate(victim.sources)
        )
        mutant = _rebuild(network, {victim.id: replace(victim, sources=sources)})
        return mutant, (
            f"node {victim.id}: source[{port}] "
            f"{victim.sources[port]} -> {new_src}"
        )
    return None


#: Structural mutation operators, tried in random order by :func:`random_mutant`.
NETWORK_MUTATIONS: tuple[Callable[[Network, random.Random], Optional[tuple[Network, str]]], ...] = (
    mutate_min_max_swap,
    mutate_inc_amount,
    mutate_lt_swap,
    mutate_rewire,
)


def random_mutant(
    network: Network, rng: random.Random
) -> Optional[tuple[Network, str]]:
    """Apply the first applicable mutation, drawn in random order.

    Returns ``(mutant, description)`` or ``None`` when no operator
    applies (e.g. a pure wire network).  Note a structural mutant may
    still be *semantically* equivalent on some volleys — the self-check
    retries across seeds rather than assuming every mutant is killable.
    """
    operators = list(NETWORK_MUTATIONS)
    rng.shuffle(operators)
    for operator in operators:
        outcome = operator(network, rng)
        if outcome is not None:
            return outcome
    return None


# ---------------------------------------------------------------------------
# Faulted oracles
# ---------------------------------------------------------------------------

class FaultedOracle(BackendEngine):
    """A victim backend with a fault spliced into its inputs.

    Wraps any oracle and transforms the network and/or the volleys it
    sees; everything else (support checks, output shape) is delegated,
    so the conformance diff treats it exactly like a real backend.
    """

    def __init__(
        self,
        victim: BackendEngine,
        *,
        label: str,
        network_transform: Optional[Callable[[Network], Network]] = None,
        volley_transform: Optional[Callable[[Volley], Volley]] = None,
    ):
        self.victim = victim
        self.name = f"{victim.name}!{label}"
        self.network_transform = network_transform
        self.volley_transform = volley_transform

    def _network(self, network: Network) -> Network:
        if self.network_transform is None:
            return network
        return self.network_transform(network)

    def supports_network(self, network: Network) -> Optional[str]:
        return self.victim.supports_network(self._network(network))

    def supports_volley(self, volley: Volley) -> bool:
        return self.victim.supports_volley(volley)

    def run(self, network, volleys, params=None):
        network = self._network(network)
        if self.volley_transform is not None:
            volleys = [self.volley_transform(v) for v in volleys]
        return self.victim.run(network, volleys, params=params)

    def trace(self, network, volley, params=None):
        # The mutant's view of the world: trace through the fault, so a
        # divergence report shows *where* the corruption first surfaces.
        network = self._network(network)
        if self.volley_transform is not None:
            volley = self.volley_transform(volley)
        return self.victim.trace(network, volley, params=params)


class PlanReorderOracle(BackendEngine):
    """The compiled batch engine with a corrupted kernel schedule.

    Builds a fresh (unshared) :class:`~repro.network.compile_plan.
    CompiledPlan` of the program the compiled engine runs (sorters
    grouped, so sort kernels are in the schedule), finds a kernel that
    consumes another kernel's arena
    rows, swaps the two, and executes the corrupted list through the
    *same* kernel executor the real plan uses — so the only difference
    the diff can attribute is the schedule.  The arena is
    zero-initialized for determinism (the consumer reads zeros instead
    of its producer's times); constant rows are still filled, as they
    are at real arena allocation, since they are not part of the kernel
    schedule being corrupted.
    """

    name = "compiled-batch!plan-reorder"

    @staticmethod
    def _dependent_pair(kernels) -> Optional[tuple[int, int]]:
        for i, producer in enumerate(kernels):
            made = set(range(producer.lo, producer.hi))
            for j in range(i + 1, len(kernels)):
                if made & _kernel_reads(kernels[j]):
                    return i, j
        return None

    def supports_network(self, network: Network) -> Optional[str]:
        plan = CompiledPlan(group_sorters(network))
        if self._dependent_pair(plan.kernels) is None:
            return "plan has no dependent kernel pair to reorder"
        return None

    def run(self, network, volleys, params=None):
        # Fresh: never poison the program's plan.
        plan = CompiledPlan(group_sorters(network))
        pair = self._dependent_pair(plan.kernels)
        if pair is None:
            raise RuntimeError("no dependent pair; supports_network lied")
        i, j = pair
        kernels = list(plan.kernels)
        kernels[i], kernels[j] = kernels[j], kernels[i]

        matrix = encode_volleys(
            [tuple(v) for v in volleys], arity=plan.n_inputs
        )
        batch = matrix.shape[0]
        arena = np.zeros((plan.n_cols, batch), dtype=np.int64)
        for fill in plan.const_fills:
            arena[fill.lo:fill.hi] = fill.value
        arena[: plan.n_inputs] = matrix.T
        if plan.n_params:
            arena[plan.n_inputs:plan.n_inputs + plan.n_params] = (
                _encode_params(network, params)[:, np.newaxis]
            )
        s1 = np.empty((plan.max_gather, batch), dtype=np.int64)
        s2 = np.empty((plan.max_gather, batch), dtype=np.int64)
        mask = np.empty((plan.max_gather, batch), dtype=bool)
        _execute_kernels(kernels, arena, s1, s2, mask)
        return [tuple(row) for row in decode_matrix(arena[plan.out_cols].T)]


# ---------------------------------------------------------------------------
# Fault classes (the self-check menu)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultClass:
    """One family of injectable faults.

    ``build(case, rng)`` returns a faulted oracle for the case, or
    ``None`` when the fault does not apply (e.g. no ``inc`` node to
    drift); the self-check then tries another seed.
    """

    name: str
    description: str
    build: Callable[..., Optional[BackendEngine]]


def fault_classes() -> tuple[FaultClass, ...]:
    """The five-family self-check menu.

    Volley and network faults are spliced into the compiled batch
    engine; the schedule corruption is :class:`PlanReorderOracle`.
    """

    def build_network_mutation(case, rng: random.Random):
        outcome = random_mutant(case.network, rng)
        if outcome is None:
            return None
        mutant, description = outcome
        return FaultedOracle(
            CompiledBatchEngine(),
            label=f"mutant({description})",
            network_transform=lambda _net: mutant,
        )

    def build_plan_reorder(case, rng: random.Random):
        oracle = PlanReorderOracle()
        if oracle.supports_network(case.network) is not None:
            return None
        return oracle

    def build_spike_jitter(case, rng: random.Random):
        seed = rng.randrange(2**31)
        jitter = rng.randint(1, 3)
        return FaultedOracle(
            CompiledBatchEngine(),
            label=f"jitter(±{jitter},seed={seed})",
            volley_transform=lambda v: jitter_volley(v, jitter=jitter, seed=seed),
        )

    def build_line_drop(case, rng: random.Random):
        line = rng.randrange(len(case.network.input_names))
        return FaultedOracle(
            CompiledBatchEngine(),
            label=f"drop(line={line})",
            volley_transform=lambda v: drop_lines(v, [line]),
        )

    def build_stuck_at_zero(case, rng: random.Random):
        line = rng.randrange(len(case.network.input_names))
        return FaultedOracle(
            CompiledBatchEngine(),
            label=f"stuck0(line={line})",
            volley_transform=lambda v: stuck_at_zero(v, [line]),
        )

    return (
        FaultClass(
            "network-mutation",
            "structural mutant (min/max swap, inc drift, lt swap, rewire) "
            "in the network one backend evaluates",
            build_network_mutation,
        ),
        FaultClass(
            "plan-reorder",
            "engine executed with a dependent instruction pair swapped",
            build_plan_reorder,
        ),
        FaultClass(
            "spike-jitter",
            "victim backend sees volleys with deterministic per-line jitter",
            build_spike_jitter,
        ),
        FaultClass(
            "line-drop",
            "one input line stuck at ∞ for the victim backend",
            build_line_drop,
        ),
        FaultClass(
            "stuck-at-zero",
            "one input line stuck at 0 for the victim backend",
            build_stuck_at_zero,
        ),
    )


#: Every fault family the self-check must detect (compiled-engine victims).
FAULT_CLASSES: tuple[FaultClass, ...] = fault_classes()
