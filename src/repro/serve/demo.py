"""The seeded demo model shared by server, load generator, and CLI.

``python -m repro serve`` needs a model to serve and ``python -m repro
loadgen`` needs to rebuild the *same* model client-side so it can
confirm the server serves what the run was asked to drive — so both
sides construct it from one deterministic recipe: a seeded SRM0 column,
the same family the ``trace``/``ir``/``stats`` CLI commands demo on.
The loadgen compares its
:meth:`~repro.network.graph.Network.fingerprint` with the one the server
resolves the target to before it sends any load.
"""

from __future__ import annotations

import random

from ..network.graph import Network


def demo_column(seed: int, *, smoke: bool) -> tuple[Network, tuple[int, ...]]:
    """A seeded SRM0 column network and one volley for it.

    Deterministic in *seed*: the same seed always yields the same
    weights, threshold, and volley — so trace exports are reproducible
    and a loadgen client can reconstruct the served model exactly.
    """
    from ..neuron.response import ResponseFunction
    from ..neuron.srm0 import SRM0Neuron
    from ..neuron.srm0_network import build_srm0_network

    rng = random.Random(seed)
    n_inputs = 2 if smoke else 3
    base = ResponseFunction.piecewise_linear(amplitude=2, rise=1, fall=3)
    weights = [rng.randint(1, 3) for _ in range(n_inputs)]
    neuron = SRM0Neuron.homogeneous(
        n_inputs, weights, base_response=base, threshold=rng.randint(2, 4)
    )
    network = build_srm0_network(neuron, name=f"srm0-col-seed{seed}")
    volley = tuple(rng.randint(0, 3) for _ in range(n_inputs))
    return network, volley


def demo_volleys(
    arity: int, count: int, *, seed: int, silence_probability: float = 0.2
) -> list[tuple]:
    """A deterministic volley stream for load generation.

    Pure function of ``(arity, count, seed)`` — the loadgen evaluates
    the same stream locally to byte-check every served response.
    """
    from ..core.value import INF

    rng = random.Random(seed)
    return [
        tuple(
            INF if rng.random() < silence_probability else rng.randint(0, 9)
            for _ in range(arity)
        )
        for _ in range(count)
    ]
