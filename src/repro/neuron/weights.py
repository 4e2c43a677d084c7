"""Programmable synaptic weights via micro-weights (paper §IV.B, Figs. 13–14).

The paper's configurability primitive is the *micro-weight*: an ``lt``
whose second input μ is pinned to ``0`` (disable — the lt can never pass)
or ``∞`` (enable — the data spike always passes) before a computation.

Fig. 14 composes micro-weights into a *weight-selectable response*: the
input fans out into per-amplitude-level branches, each gated by one μ;
enabling the first ``w`` branches yields the response of synaptic weight
``w``.  Here each level's branch contributes the *difference* between the
response at weight ``w`` and at ``w - 1``, so any monotone (or even
non-monotone) family of response functions can be selected.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from ..core.value import INF, Time
from ..network.builder import NetworkBuilder, Ref, Source
from ..network.graph import Network
from .response import ResponseFunction


@dataclass(frozen=True)
class SynapseWires:
    """The gated step wires of one programmable synapse.

    ``ups``/``downs`` feed the SRM0 sort networks; ``param_names`` are the
    micro-weight lines, ordered by level (level 1 first).
    """

    ups: tuple[Ref, ...]
    downs: tuple[Ref, ...]
    param_names: tuple[str, ...]

    def settings_for_weight(self, weight: int) -> dict[str, Time]:
        """Micro-weight values selecting *weight* (Fig. 14's recipe).

        Weight ``w`` enables levels ``1..w``: their μ is ``∞``; the rest
        are ``0``.
        """
        if not 0 <= weight <= len(self.param_names):
            raise ValueError(
                f"weight must be in 0..{len(self.param_names)}, got {weight}"
            )
        return {
            name: (INF if level < weight else 0)
            for level, name in enumerate(self.param_names)
        }


def response_family(
    base: ResponseFunction, max_weight: int
) -> list[ResponseFunction]:
    """The default family: ``base`` scaled by each weight 0..max_weight."""
    return [base.scaled(w) for w in range(max_weight + 1)]


def microweight_synapse(
    builder: NetworkBuilder,
    x: Source,
    responses: Sequence[ResponseFunction],
    *,
    prefix: str = "mu",
) -> SynapseWires:
    """Emit a Fig. 14 weight-selectable synapse for input *x*.

    *responses* lists the response function for each weight value
    ``0..n``; ``responses[0]`` must be the all-zero response (weight 0
    contributes nothing — it is the state with every branch disabled).
    Level ``w`` gates the step train of ``responses[w] - responses[w-1]``.
    """
    if not responses:
        raise ValueError("need at least the weight-0 response")
    if any(responses[0].values):
        raise ValueError("responses[0] (weight 0) must be identically zero")

    ups: list[Ref] = []
    downs: list[Ref] = []
    params: list[str] = []
    for level in range(1, len(responses)):
        delta_values = [
            responses[level](t) - responses[level - 1](t)
            for t in range(max(responses[level].t_max, responses[level - 1].t_max) + 1)
        ]
        train = ResponseFunction(delta_values, name=f"level{level}").steps()
        mu = builder.param(f"{prefix}{level}")
        params.append(f"{prefix}{level}")
        for t in train.ups:
            ups.append(builder.gate(builder.inc(x, t, tag="up"), mu))
        for t in train.downs:
            downs.append(builder.gate(builder.inc(x, t, tag="down"), mu))
    return SynapseWires(tuple(ups), tuple(downs), tuple(params))


def build_programmable_neuron(
    n_inputs: int,
    *,
    base_response: Optional[ResponseFunction] = None,
    max_weight: int = 4,
    threshold: int,
    name: Optional[str] = None,
) -> tuple[Network, list[SynapseWires]]:
    """A full SRM0 neuron with per-input micro-weight-selectable weights.

    Returns the network and one :class:`SynapseWires` per input; bind the
    union of their ``settings_for_weight`` dicts as params to configure.
    The network computes, for the selected weight vector ``w``, exactly
    the fire time of ``SRM0Neuron.homogeneous(n, w, threshold=θ)``.
    """
    from ..network.sorting import bitonic_sort

    base = base_response or ResponseFunction.biexponential()
    responses = response_family(base, max_weight)
    builder = NetworkBuilder(name or f"programmable-srm0({n_inputs}x{max_weight})")
    inputs = [builder.input(f"x{i + 1}") for i in range(n_inputs)]

    synapses: list[SynapseWires] = []
    all_ups: list[Ref] = []
    all_downs: list[Ref] = []
    for i, x in enumerate(inputs):
        wires = microweight_synapse(builder, x, responses, prefix=f"mu{i + 1}_")
        synapses.append(wires)
        all_ups.extend(wires.ups)
        all_downs.extend(wires.downs)

    sorted_ups = bitonic_sort(builder, all_ups)
    sorted_downs = bitonic_sort(builder, all_downs)

    crossings: list[Ref] = []
    for i in range(len(sorted_ups) - threshold + 1):
        up = sorted_ups[threshold - 1 + i]
        if up is None:
            continue
        down = sorted_downs[i] if i < len(sorted_downs) else None
        if down is None:
            crossings.append(up)
        else:
            crossings.append(builder.lt(up, down, tag="threshold"))
    if crossings:
        builder.output("y", builder.min(*crossings, tag="fire"))
    else:
        builder.output("y", builder.lt(inputs[0], inputs[0], tag="never"))
    return builder.build(), synapses


def weight_settings(
    synapses: Sequence[SynapseWires], weights: Sequence[int]
) -> dict[str, Time]:
    """Merge per-synapse micro-weight settings for a weight vector."""
    if len(synapses) != len(weights):
        raise ValueError("one weight per synapse required")
    merged: dict[str, Time] = {}
    for synapse, weight in zip(synapses, weights):
        merged.update(synapse.settings_for_weight(weight))
    return merged
