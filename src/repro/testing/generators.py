"""Seeded generation of conformance cases: networks + adversarial volleys.

A conformance *case* is a network (possibly with a parameter binding),
plus a volley batch chosen to stress the semantics where implementations
historically diverge: the ``∞`` sentinel boundary, saturating ``inc``
chains, all-silent volleys, and simultaneous spikes that race through
``lt`` ties.

Two generator layers:

* :func:`random_layered_network` — layered DAGs over the raw primitives
  with size/depth knobs, occasionally emitting zero-source min/max
  constants (the lattice identities, a known cross-backend hazard);
* :func:`random_kernel_network` — random series compositions drawn from
  the :mod:`repro.kernels` standard library (interval arithmetic,
  latches, barriers, routers, accumulators), stages chained by port
  renaming so composed kernel networks are fuzzed as first-class
  citizens;
* :func:`random_sorter_network` — random DAGs with bitonic and odd-even
  sorters of random width embedded in them, the shape the compiled
  engine lowers to one sort kernel per sorter;
* :func:`generate_case` — draws a whole case from one integer seed,
  mixing layered DAGs with the paper's composite constructions (SRM0
  sorting-network neurons, τ-WTA / k-WTA inhibition, micro-weight
  programmable synapses) and composed kernels, so the sweep also covers
  deep, structured, parameterized networks.

Everything is a pure function of its seed — a failing case id is a
complete reproduction recipe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..core.value import INF, Time
from ..network.builder import NetworkBuilder
from ..network.compile_plan import MAX_FINITE
from ..network.graph import Network
from ..network.sorting import bitonic_sort, odd_even_merge_sort
from ..neuron.response import ResponseFunction
from ..neuron.srm0 import SRM0Neuron
from ..neuron.srm0_network import build_srm0_network
from ..neuron.weights import build_programmable_neuron, weight_settings
from ..neuron.wta import build_k_wta_network, build_wta_network
from .oracles import Volley

#: Case families drawn by :func:`generate_case`, with draw weights.  A
#: weight of 0 keeps a family out of the mixed draw (so adding one never
#: reshuffles the seeds of the others); ``--family`` still selects it.
FAMILIES: tuple[tuple[str, int], ...] = (
    ("layered", 5),
    ("srm0", 2),
    ("wta", 1),
    ("kwta", 1),
    ("microweight", 1),
    ("kernels", 2),
    ("sorters", 0),
)


@dataclass(frozen=True)
class ConformanceCase:
    """One unit of differential-testing work, fully determined by seed."""

    seed: int
    family: str
    network: Network
    volleys: tuple[Volley, ...]
    params: dict[str, Time] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.family}[seed={self.seed}]"


# ---------------------------------------------------------------------------
# Layered DAG generator
# ---------------------------------------------------------------------------

def random_layered_network(
    *,
    seed: int,
    n_inputs: int = 4,
    n_layers: int = 4,
    width: int = 5,
    n_outputs: int = 2,
    max_inc: int = 3,
    operations: tuple[str, ...] = ("inc", "min", "max", "lt"),
    p_empty_const: float = 0.06,
    name: Optional[str] = None,
) -> Network:
    """A layered random DAG over the s-t primitives.

    Each layer's nodes draw their first source from the previous layer
    (guaranteeing structural depth ``>= n_layers``) and the rest from any
    earlier wire.  With probability *p_empty_const* a min/max node is
    emitted with **zero** sources — the lattice identity constants ``∞``
    and ``0``, which every backend must agree on (and which the GRL
    compiler rightly refuses).  Outputs tap the last layer.
    """
    if n_inputs < 1 or n_layers < 1 or width < 1 or n_outputs < 1:
        raise ValueError("need at least one input, layer, node, and output")
    unknown = set(operations) - {"inc", "min", "max", "lt"}
    if unknown:
        raise ValueError(f"unknown operations: {sorted(unknown)}")
    rng = random.Random(seed)
    builder = NetworkBuilder(name or f"layered(seed={seed})")
    inputs = [builder.input(f"x{i}") for i in range(n_inputs)]
    previous = list(inputs)
    everything = list(inputs)
    for _ in range(n_layers):
        layer = []
        for _ in range(width):
            op = rng.choice(operations)
            anchor = rng.choice(previous)
            if op == "inc":
                wire = builder.inc(anchor, rng.randint(1, max_inc))
            elif op == "lt":
                wire = builder.lt(anchor, rng.choice(everything))
            elif rng.random() < p_empty_const:
                wire = getattr(builder, op)()
            else:
                arity = rng.randint(2, 3)
                extra = [rng.choice(everything) for _ in range(arity - 1)]
                wire = getattr(builder, op)(anchor, *extra)
            layer.append(wire)
        previous = layer
        everything.extend(layer)
    for index in range(min(n_outputs, len(previous))):
        builder.output(f"y{index}", previous[-(index + 1)])
    return builder.build()


# ---------------------------------------------------------------------------
# Random kernel compositions
# ---------------------------------------------------------------------------

def random_kernel_network(
    *,
    seed: int,
    max_stages: int = 4,
    smoke: bool = False,
    name: Optional[str] = None,
) -> Network:
    """A random series composition from the s-t kernel stdlib.

    Draws 2..*max_stages* kernels from :data:`repro.kernels.KERNELS`
    (each with a registry-declared parameter variant), renames every
    stage's outputs to unique labels, and renames each input either to a
    distinct earlier output (wiring it in) or to a fresh exposed name.
    The stages then flow through :func:`repro.kernels.compose` — so the
    conformance sweep fuzzes exactly the composition surface users get,
    including its unified-input and export-all-outputs semantics.
    """
    from ..kernels import KERNELS, build_kernel, compose

    rng = random.Random(seed)
    n_stages = rng.randint(2, 2 if smoke else max_stages)
    stages = []
    available: list[str] = []
    for index in range(n_stages):
        kernel_name = rng.choice(list(KERNELS))
        variant = dict(rng.choice(KERNELS[kernel_name].variants))
        kernel = build_kernel(kernel_name, **variant)
        out_map = {port: f"s{index}_{port}" for port in kernel.outputs}
        # Bind inputs to *distinct* earlier outputs (renamed ports must
        # stay unique); unbound inputs get fresh exposed names.
        pool = list(available)
        rng.shuffle(pool)
        in_map = {}
        for port in kernel.inputs:
            if pool and rng.random() < 0.7:
                in_map[port] = pool.pop()
            else:
                in_map[port] = f"s{index}_in_{port}"
        stages.append(
            kernel.renamed(
                inputs=in_map, outputs=out_map, name=f"s{index}-{kernel_name}"
            )
        )
        available.extend(out_map.values())
    composed = compose(*stages, name=name or f"kernels(seed={seed})")
    return composed.network(name=name or f"kernels(seed={seed})")


# ---------------------------------------------------------------------------
# Embedded sorting networks
# ---------------------------------------------------------------------------

def random_sorter_network(
    *, seed: int, smoke: bool = False, name: Optional[str] = None
) -> Network:
    """A random DAG with sorting networks of random width embedded in it.

    Each sorter is :func:`~repro.network.sorting.bitonic_sort` or
    :func:`~repro.network.sorting.odd_even_merge_sort` over 1..12 lanes
    (1..6 in *smoke*; powers of two or not) drawn from earlier wires,
    sometimes with one wire on two lanes.  A few of its outputs feed
    delays, ``lt`` races and ``min``/``max`` nodes that later sorters
    read; now and then a later sorter reads an earlier one's outputs
    directly, which joins the two into one region that is no sorter.
    Unread sorter outputs are left dead on purpose.
    """
    rng = random.Random(seed)
    builder = NetworkBuilder(name or f"sorters(seed={seed})")
    n_inputs = rng.randint(2, 4 if smoke else 6)
    wires = [builder.input(f"x{i}") for i in range(n_inputs)]
    wires.append(builder.inc(rng.choice(wires), rng.randint(1, 3)))
    sorted_outputs = []
    taps = []
    for _ in range(rng.randint(1, 2 if smoke else 3)):
        width = rng.randint(1, 6 if smoke else 12)
        pool = sorted_outputs if sorted_outputs and rng.random() < 0.15 else wires
        lanes = [rng.choice(pool) for _ in range(width)]
        if width > 2 and rng.random() < 0.3:
            lanes[rng.randrange(width)] = lanes[0]
        sort = bitonic_sort if rng.random() < 0.6 else odd_even_merge_sort
        sorted_outputs = [w for w in sort(builder, lanes) if w is not None]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(sorted_outputs), rng.choice(sorted_outputs + wires)
            op = rng.choice(("inc", "lt", "min", "max"))
            if op == "inc":
                wires.append(builder.inc(a, rng.randint(1, 3)))
            else:
                wires.append(getattr(builder, op)(a, b))
        taps.append(rng.choice(sorted_outputs))
    for index, wire in enumerate(taps + wires[-rng.randint(1, 2):]):
        builder.output(f"y{index}", wire)
    return builder.build()


# ---------------------------------------------------------------------------
# Adversarial volleys
# ---------------------------------------------------------------------------

def adversarial_volleys(
    n_lines: int,
    *,
    rng: random.Random,
    n_random: int = 10,
    max_time: int = 9,
    silence_probability: float = 0.25,
) -> tuple[Volley, ...]:
    """A volley batch biased toward the semantics' sharp edges.

    Always includes: the all-zero and all-``∞`` volleys, an all-ties
    volley (every line simultaneous), a 0/∞ checkerboard, a volley pinned
    at :data:`~repro.network.compile_plan.MAX_FINITE` (the last finite
    int64 time — any ``inc`` saturates it to the sentinel) and a mixed
    near-sentinel/small volley; then *n_random* random volleys with
    *silence_probability* of ``∞`` per line.
    """
    if n_lines < 1:
        raise ValueError("need at least one line")
    tie = rng.randint(0, max_time)
    fixed: list[Volley] = [
        (0,) * n_lines,
        (INF,) * n_lines,
        (tie,) * n_lines,
        tuple(0 if i % 2 == 0 else INF for i in range(n_lines)),
        (MAX_FINITE,) * n_lines,
        tuple(
            MAX_FINITE - rng.randint(0, 3) if i % 2 == 0 else rng.randint(0, max_time)
            for i in range(n_lines)
        ),
    ]
    randoms = [
        tuple(
            INF
            if rng.random() < silence_probability
            else rng.randint(0, max_time)
            for _ in range(n_lines)
        )
        for _ in range(n_random)
    ]
    return tuple(fixed + randoms)


# ---------------------------------------------------------------------------
# Whole-case generation
# ---------------------------------------------------------------------------

def _pick_family(rng: random.Random) -> str:
    names = [name for name, weight in FAMILIES for _ in range(weight)]
    return rng.choice(names)


def generate_case(
    seed: int, *, smoke: bool = False, family: Optional[str] = None
) -> ConformanceCase:
    """Draw one conformance case from an integer seed.

    *smoke* shrinks every size knob so a CI smoke sweep stays under a
    few seconds while still crossing each family and each adversarial
    volley shape.  *family* pins the case family instead of drawing it
    from the weighted mix (``python -m repro conformance --family``) —
    the seed still drives every other choice.
    """
    rng = random.Random(seed)
    known = [name for name, _ in FAMILIES]
    if family is None:
        family = _pick_family(rng)
    elif family not in known:
        raise ValueError(
            f"unknown family {family!r}; known: {', '.join(known)}"
        )
    else:
        _pick_family(rng)  # keep the rng stream aligned with mixed draws
    params: dict[str, Time] = {}

    if family == "layered":
        network = random_layered_network(
            seed=rng.randrange(2**31),
            n_inputs=rng.randint(2, 3 if smoke else 5),
            n_layers=rng.randint(2, 3 if smoke else 5),
            width=rng.randint(2, 3 if smoke else 6),
            n_outputs=rng.randint(1, 2),
            max_inc=rng.randint(1, 3),
        )
    elif family == "srm0":
        arity = rng.randint(2, 2 if smoke else 3)
        weights = [rng.randint(1, 3) for _ in range(arity)]
        response = ResponseFunction.piecewise_linear(
            amplitude=rng.randint(1, 2),
            rise=rng.randint(1, 2),
            fall=rng.randint(1, 3),
        )
        neuron = SRM0Neuron.homogeneous(
            arity,
            weights,
            base_response=response,
            threshold=rng.randint(1, max(1, sum(weights))),
        )
        network = build_srm0_network(neuron)
    elif family == "wta":
        network = build_wta_network(
            rng.randint(3, 4 if smoke else 6), window=rng.randint(1, 2)
        )
    elif family == "kwta":
        n_lines = rng.randint(4, 4 if smoke else 6)
        network = build_k_wta_network(n_lines, rng.randint(1, n_lines - 1))
    elif family == "kernels":
        network = random_kernel_network(
            seed=rng.randrange(2**31), smoke=smoke
        )
    elif family == "sorters":
        network = random_sorter_network(
            seed=rng.randrange(2**31), smoke=smoke
        )
    else:  # microweight
        n_inputs = 2
        max_weight = rng.randint(1, 2)
        response = ResponseFunction.piecewise_linear(
            amplitude=1, rise=1, fall=rng.randint(1, 2)
        )
        network, synapses = build_programmable_neuron(
            n_inputs,
            base_response=response,
            max_weight=max_weight,
            threshold=rng.randint(1, 2),
        )
        params = weight_settings(
            synapses, [rng.randint(0, max_weight) for _ in range(n_inputs)]
        )

    volleys = adversarial_volleys(
        len(network.input_names),
        rng=rng,
        n_random=4 if smoke else 10,
    )
    return ConformanceCase(
        seed=seed,
        family=family,
        network=network,
        volleys=volleys,
        params=params,
    )
