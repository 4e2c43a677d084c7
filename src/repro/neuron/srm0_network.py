"""SRM0 neurons from pure s-t primitives (paper Fig. 12).

The construction: fan each input out into its response function's up/down
step wires (Fig. 11), sort all up wires and all down wires with bitonic
networks (Fig. 10), then race the sorted streams with ``lt`` blocks — the
``i``-th race asks whether the ``(θ+i)``-th up step arrives strictly
before the ``(i+1)``-th down step, i.e. whether the potential reaches θ at
that up step.  A final ``min`` picks the earliest such crossing: exactly
the SRM0 threshold time.

Correctness argument (checked exhaustively in tests): the potential at
time t equals ``#up-steps(<=t) - #down-steps(<=t)``.  The term
``lt(U[θ+i], D[i+1])`` is finite iff at time ``U[θ+i]`` at least ``θ+i``
up steps and at most ``i`` down steps have arrived — a crossing; and the
first crossing is always of this form with ``i`` = the number of down
steps seen so far.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

from ..core.value import Time, decode_time
from ..network.builder import NetworkBuilder, Ref
from ..network.graph import Network
from .response import ResponseFunction, fanout_network
from ..network.sorting import bitonic_sort, odd_even_merge_sort
from .srm0 import SRM0Neuron


def build_srm0_network(
    neuron: SRM0Neuron,
    *,
    name: Optional[str] = None,
    algorithm: str = "bitonic",
) -> Network:
    """Compile a behavioral :class:`SRM0Neuron` to s-t primitives (Fig. 12).

    The returned network has inputs ``x1..xn`` and one output ``y`` whose
    spike time equals ``neuron.fire_time`` on every input vector.
    """
    builder = NetworkBuilder(name or f"srm0-net({neuron.name})")
    inputs = [builder.input(f"x{i + 1}") for i in range(neuron.arity)]

    up_wires: list[Ref] = []
    down_wires: list[Ref] = []
    for x, response in zip(inputs, neuron.responses):
        ups, downs = fanout_network(builder, x, response)
        up_wires.extend(ups)
        down_wires.extend(downs)

    sorter = bitonic_sort if algorithm == "bitonic" else odd_even_merge_sort
    sorted_ups = sorter(builder, up_wires)
    sorted_downs = sorter(builder, down_wires)

    theta = neuron.threshold
    crossings: list[Ref] = []
    for i in range(len(sorted_ups) - theta + 1):
        up = sorted_ups[theta - 1 + i]  # the (θ+i)-th up step, 1-indexed
        if up is None:
            continue
        down = sorted_downs[i] if i < len(sorted_downs) else None
        if down is None:
            # No (i+1)-th down step can ever arrive: the up step is a
            # crossing unconditionally; lt against ∞ folds to a wire.
            crossings.append(up)
        else:
            crossings.append(builder.lt(up, down, tag="threshold"))

    if crossings:
        builder.output("y", builder.min(*crossings, tag="fire"))
    else:
        # Threshold exceeds the total possible up steps: the neuron can
        # never fire.  lt(x, x) is identically ∞.
        builder.output("y", builder.lt(inputs[0], inputs[0], tag="never"))
    return builder.build()


def batched_fire_times(
    network: Network,
    volleys: Sequence[Sequence[Time]],
    *,
    output: str = "y",
) -> list[Time]:
    """Fire times of a compiled SRM0 network over a whole volley batch.

    One call into the compiled batched engine
    (:func:`repro.network.compile_plan.evaluate_batch`) instead of one
    Python network walk per volley — the fast path for the Fig. 12
    equivalence sweeps and any workload that probes a fixed neuron on
    many volleys.
    """
    # The engine brings NumPy; building a network needs neither.
    from ..network.compile_plan import evaluate_batch

    column = list(network.outputs).index(output)
    matrix = evaluate_batch(network, volleys)
    return [decode_time(v) for v in matrix[:, column].tolist()]


def build_srm0_from_weights(
    weights: Sequence[int],
    *,
    threshold: int,
    base_response: Optional[ResponseFunction] = None,
    name: Optional[str] = None,
) -> Network:
    """Convenience: weights + shared base response -> compiled network."""
    neuron = SRM0Neuron.homogeneous(
        len(weights),
        weights,
        base_response=base_response,
        threshold=threshold,
        name=name,
    )
    return build_srm0_network(neuron, name=name)
