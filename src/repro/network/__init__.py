"""Feedforward space-time computing networks (paper §III, Fig. 7).

The substrate everything else is built on: a DAG of primitive blocks
(:mod:`~repro.network.blocks`), assembled with a builder
(:mod:`~repro.network.builder`), evaluated denotationally
(:mod:`~repro.network.simulator`) or operationally as discrete spike
events (:mod:`~repro.network.events`), with structural validation
(:mod:`~repro.network.validate`) and size/activity statistics
(:mod:`~repro.network.stats`).
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy(
    __name__,
    {
        "blocks": ("COMPUTE_KINDS", "KINDS", "Node"),
        "builder": ("NetworkBuilder", "Ref"),
        "compile_plan": (
            "INF_I64", "MAX_FINITE", "CompiledPlan", "compile_plan",
            "decode_matrix", "decode_time", "encode_time", "encode_volleys",
            "evaluate_batch", "evaluate_batch_all",
        ),
        "events": ("EventSimulator", "SimulationResult", "SpikeEvent", "simulate"),
        "generate": ("input_batch", "random_inputs", "random_network", "random_volley"),
        "graph": ("Network", "NetworkError"),
        "serialize": (
            "dumps", "load", "loads", "network_from_dict", "network_to_dict",
            "save",
        ),
        "simulator": (
            "evaluate", "evaluate_all", "evaluate_all_interpreted",
            "evaluate_vector",
        ),
        "timing": (
            "TimeInterval", "analyze", "default_input_window", "makespan_bound",
            "output_intervals",
        ),
        "stats": ("ActivityStats", "StructureStats", "activity", "structure"),
        "validate": (
            "ValidationReport", "check_feedforward", "live_node_ids",
            "strip_dead_nodes", "validate",
        ),
    },
)
