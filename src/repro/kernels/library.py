"""The s-t kernel standard library (STICK-style primitives).

Each factory returns a :class:`~repro.kernels.kernel.Kernel` — a small,
reusable IR subprogram with named ports — built from the paper's four
primitives (``inc``/``min``/``max``/``lt``).  The families:

* **interval arithmetic** — a spike-time interval is a pair of lines
  ``(lo, hi)``: constant shift (tropical addition by a constant delay),
  pointwise min/max (the lattice meet/join of interval endpoints), and
  the set operations union/intersection.  Subtraction has no s-t
  realization: the algebra is monotone over ``N0∞`` (Lemma 1's
  invariance), so a kernel can delay a spike but never advance it.
* **memory** — :func:`latch`: a temporal latch that captures its data
  spike iff it arrives strictly before the latch closes (the same
  ``lt`` race the paper's micro-weight gate is built on), with a
  ``missed`` complement output.
* **synchronization** — :func:`barrier`: releases when *all* inputs
  have arrived (``max``), with a configurable post-release slack delay,
  plus a ``first`` (``min``) tap.
* **routing** — :func:`router`: a k-way earliest-wins selector; output
  line *i* relays input *i* iff it strictly preceded every other input
  (1-WTA built directly from ``min``/``lt``).
* **accumulation** — :func:`accumulator`: fires at the k-th earliest
  arrival of its *n* inputs (a counting/threshold cell), via the order
  statistic ``kth(x) = min over all k-subsets S of max(S)``.

:data:`KERNELS` is the registry; every entry ships the full per-kernel
contract: an inferred function table (:meth:`Kernel.contract`), a
conformance generator family (``kernels`` in
:mod:`repro.testing.generators`), and a served demo
(``python -m repro kernels --demo <name>``, ``python -m repro serve
--kernel <name>``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from ..core.value import INF
from ..network.builder import NetworkBuilder
from ..network.graph import Network
from .kernel import Kernel, KernelError


# ---------------------------------------------------------------------------
# Interval arithmetic
# ---------------------------------------------------------------------------

def interval_shift(amount: int = 2) -> Kernel:
    """Shift an interval later by a constant: ``[lo, hi] + amount``.

    Tropical (min-plus) addition by a constant — the only addition the
    algebra admits; ``inc`` saturates at the int64 sentinel like every
    other delay chain.
    """
    if amount < 1:
        raise KernelError("interval-shift needs amount >= 1")
    b = NetworkBuilder("interval-shift")
    lo, hi = b.input("lo"), b.input("hi")
    b.output("lo_out", b.inc(lo, amount))
    b.output("hi_out", b.inc(hi, amount))
    return Kernel.from_builder(
        b,
        name="interval-shift",
        description=f"shift both interval endpoints later by +{amount}",
    )


def interval_min() -> Kernel:
    """Pointwise lattice meet of two intervals: ``[a∧b]`` endpoint-wise."""
    b = NetworkBuilder("interval-min")
    a_lo, a_hi = b.input("a_lo"), b.input("a_hi")
    b_lo, b_hi = b.input("b_lo"), b.input("b_hi")
    b.output("lo_out", b.min(a_lo, b_lo))
    b.output("hi_out", b.min(a_hi, b_hi))
    return Kernel.from_builder(
        b,
        name="interval-min",
        description="pointwise min (lattice meet) of two intervals",
    )


def interval_max() -> Kernel:
    """Pointwise lattice join of two intervals: ``[a∨b]`` endpoint-wise."""
    b = NetworkBuilder("interval-max")
    a_lo, a_hi = b.input("a_lo"), b.input("a_hi")
    b_lo, b_hi = b.input("b_lo"), b.input("b_hi")
    b.output("lo_out", b.max(a_lo, b_lo))
    b.output("hi_out", b.max(a_hi, b_hi))
    return Kernel.from_builder(
        b,
        name="interval-max",
        description="pointwise max (lattice join) of two intervals",
    )


def interval_union() -> Kernel:
    """Smallest interval containing both: ``[min(los), max(his)]``."""
    b = NetworkBuilder("interval-union")
    a_lo, a_hi = b.input("a_lo"), b.input("a_hi")
    b_lo, b_hi = b.input("b_lo"), b.input("b_hi")
    b.output("lo_out", b.min(a_lo, b_lo))
    b.output("hi_out", b.max(a_hi, b_hi))
    return Kernel.from_builder(
        b,
        name="interval-union",
        description="interval hull: earliest lo, latest hi",
    )


def interval_intersect() -> Kernel:
    """Interval intersection: ``[max(los), min(his)]`` plus a witness.

    ``proper`` relays the intersection's ``lo`` iff the intersection has
    strictly positive width (``lo ≺ hi``); on empty or point
    intersections it stays silent (``∞``).
    """
    b = NetworkBuilder("interval-intersect")
    a_lo, a_hi = b.input("a_lo"), b.input("a_hi")
    b_lo, b_hi = b.input("b_lo"), b.input("b_hi")
    lo = b.max(a_lo, b_lo)
    hi = b.min(a_hi, b_hi)
    b.output("lo_out", lo)
    b.output("hi_out", hi)
    b.output("proper", b.lt(lo, hi))
    return Kernel.from_builder(
        b,
        name="interval-intersect",
        description="interval intersection with a positive-width witness",
    )


# ---------------------------------------------------------------------------
# Memory, synchronization, routing, accumulation
# ---------------------------------------------------------------------------

def latch(hold: int = 0) -> Kernel:
    """A temporal latch: capture ``data`` iff it beats ``close``.

    ``q`` relays the data spike (delayed by *hold*) iff it arrived
    strictly before the latch closed — the ``lt`` race the paper's
    micro-weight gate generalizes.  ``missed`` is the complement
    witness: it relays ``close`` iff the latch closed strictly first.
    On a tie both stay silent (``∞``) — strictness is the algebra's,
    not an implementation choice.
    """
    if hold < 0:
        raise KernelError("latch hold must be non-negative")
    b = NetworkBuilder("latch")
    data, close = b.input("data"), b.input("close")
    captured = b.lt(data, close)
    b.output("q", b.inc(captured, hold))
    b.output("missed", b.lt(close, data))
    return Kernel.from_builder(
        b,
        name="latch",
        description="capture data iff it strictly precedes close",
    )


def barrier(n: int = 3, slack: int = 1) -> Kernel:
    """An n-way synchronizer: release once *every* input has arrived.

    ``release`` fires at ``max(inputs) + slack`` — the barrier
    admission the event simulator and GRL flip-flop chains realize
    identically; ``first`` taps ``min(inputs)`` so a composition can
    also race against the earliest arrival.
    """
    if n < 2:
        raise KernelError("barrier needs at least two inputs")
    if slack < 0:
        raise KernelError("barrier slack must be non-negative")
    b = NetworkBuilder("barrier")
    xs = [b.input(f"x{i}") for i in range(n)]
    b.output("release", b.inc(b.max(*xs), slack))
    b.output("first", b.min(*xs))
    return Kernel.from_builder(
        b,
        name="barrier",
        description=f"{n}-way all-arrived barrier (+{slack} slack)",
    )


def router(n: int = 3) -> Kernel:
    """A k-way earliest-wins selector (1-WTA over *n* lines).

    Output ``y{i}`` relays input ``x{i}`` iff it strictly preceded every
    other input; on ties no line wins (all outputs ``∞``).  This is the
    paper's WTA inhibition built directly from ``min``/``lt``.
    """
    if n < 2:
        raise KernelError("router needs at least two lines")
    b = NetworkBuilder("router")
    xs = [b.input(f"x{i}") for i in range(n)]
    for i, x in enumerate(xs):
        others = [xs[j] for j in range(n) if j != i]
        b.output(f"y{i}", b.lt(x, b.min(*others)))
    return Kernel.from_builder(
        b,
        name="router",
        description=f"{n}-way earliest-wins selector (strict 1-WTA)",
    )


def accumulator(n: int = 4, k: int = 2) -> Kernel:
    """Fire at the k-th earliest arrival of *n* inputs (a counting cell).

    Uses the order-statistic identity ``kth-smallest = min over all
    k-subsets S of max(S)``: the max over any k lines is at least the
    k-th arrival, and the subset of the k earliest lines achieves it.
    ``k=1`` degenerates to ``min`` (first arrival), ``k=n`` to ``max``
    (the barrier).  A silent line (``∞``) simply never completes any
    subset containing it.
    """
    if n < 2:
        raise KernelError("accumulator needs at least two inputs")
    if not 1 <= k <= n:
        raise KernelError(f"accumulator threshold k={k} outside 1..{n}")
    b = NetworkBuilder("accumulator")
    xs = [b.input(f"x{i}") for i in range(n)]
    if k == 1:
        kth = b.min(*xs)
    elif k == n:
        kth = b.max(*xs)
    else:
        kth = b.min(*(b.max(*subset) for subset in combinations(xs, k)))
    b.output("kth", kth)
    return Kernel.from_builder(
        b,
        name="accumulator",
        description=f"fires at the {k}-th of {n} arrivals",
    )


# ---------------------------------------------------------------------------
# The registry: each entry carries the per-kernel contract configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Registry entry: factory plus the contract/demo configuration."""

    factory: Callable[..., Kernel]
    description: str
    #: Window for the inferred function-table contract (≥ history bound).
    table_window: int
    #: One deterministic, interesting volley for the CLI demo printout.
    demo_volley: tuple
    #: Keyword variants the random composition generator may draw.
    variants: tuple[dict, ...] = field(default_factory=lambda: ({},))

    def build(self, **kwargs) -> Kernel:
        return self.factory(**kwargs)


KERNELS: dict[str, KernelSpec] = {
    "interval-shift": KernelSpec(
        interval_shift,
        "shift both interval endpoints later by a constant",
        table_window=3,
        demo_volley=(1, 4),
        variants=({}, {"amount": 1}, {"amount": 3}),
    ),
    "interval-min": KernelSpec(
        interval_min,
        "pointwise min (lattice meet) of two intervals",
        table_window=2,
        demo_volley=(1, 4, 2, 3),
    ),
    "interval-max": KernelSpec(
        interval_max,
        "pointwise max (lattice join) of two intervals",
        table_window=2,
        demo_volley=(1, 4, 2, 3),
    ),
    "interval-union": KernelSpec(
        interval_union,
        "interval hull: earliest lo, latest hi",
        table_window=2,
        demo_volley=(1, 4, 2, 3),
    ),
    "interval-intersect": KernelSpec(
        interval_intersect,
        "interval intersection with a positive-width witness",
        table_window=2,
        demo_volley=(1, 4, 2, 6),
    ),
    "latch": KernelSpec(
        latch,
        "capture data iff it strictly precedes close",
        table_window=3,
        demo_volley=(1, 3),
        variants=({}, {"hold": 1}, {"hold": 2}),
    ),
    "barrier": KernelSpec(
        barrier,
        "n-way all-arrived barrier with slack",
        table_window=2,
        demo_volley=(0, 2, 1),
        variants=({}, {"n": 2, "slack": 0}, {"n": 4, "slack": 2}),
    ),
    "router": KernelSpec(
        router,
        "k-way earliest-wins selector (strict 1-WTA)",
        table_window=2,
        demo_volley=(2, 0, 1),
        variants=({}, {"n": 2}, {"n": 4}),
    ),
    "accumulator": KernelSpec(
        accumulator,
        "fires at the k-th of n arrivals (counting cell)",
        table_window=2,
        demo_volley=(3, 0, INF, 1),
        variants=({}, {"n": 3, "k": 2}, {"n": 4, "k": 3}, {"n": 2, "k": 1}),
    ),
}


def kernel_names() -> list[str]:
    """Registered kernel names, in registry order."""
    return list(KERNELS)


def build_kernel(name: str, **kwargs) -> Kernel:
    """Instantiate a registry kernel by name (default arguments unless
    overridden)."""
    spec = KERNELS.get(name)
    if spec is None:
        raise KernelError(
            f"unknown kernel {name!r}; registered: {', '.join(KERNELS)}"
        )
    return spec.build(**kwargs)


def demo_network(name: str) -> Network:
    """The kernel's served demo model: its default build, as a Network.

    Pure function of *name* — server and load generator both call this
    so the loadgen's local model is bit-identical (same fingerprint) to
    what the server registered, which its handshake checks.
    """
    kernel = build_kernel(name)
    return kernel.network(name=f"kernel-{name}")
