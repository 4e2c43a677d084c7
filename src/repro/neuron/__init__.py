"""Temporal neural network components built on the s-t substrate (§IV).

Response functions and their step decomposition (Fig. 11), bitonic
sorting networks (Fig. 10), the behavioral SRM0 neuron (Fig. 1) and its
pure-primitive compilation (Fig. 12), micro-weight programmable synapses
(Figs. 13–14), winner-take-all inhibition (Fig. 15), and WTA-inhibited
columns of neurons (the Fig. 4 building block).
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy(
    __name__,
    {
        "column": ("Column", "compile_column"),
        "layers": ("LayeredTNN", "compile_layered", "train_layerwise"),
        "response": (
            "FIG11_RESPONSE", "ResponseFunction", "StepTrain", "fanout_network",
        ),
        "sorting": (
            "bitonic_sort", "comparator_count", "odd_even_merge_sort",
            "sort_network", "theoretical_bitonic_comparators",
        ),
        "srm0": ("SRM0Neuron",),
        "srm0_network": ("build_srm0_from_weights", "build_srm0_network"),
        "weights": (
            "SynapseWires", "build_programmable_neuron", "microweight_synapse",
            "response_family", "weight_settings",
        ),
        "wta": (
            "build_k_wta_network", "build_wta_network", "first_winner",
            "k_wta", "winners", "wta",
        ),
    },
)
