"""Feedforward space-time computing networks (paper §III, Fig. 7).

The substrate everything else is built on: a DAG of primitive blocks
(:mod:`~repro.network.blocks`), assembled with a builder
(:mod:`~repro.network.builder`), evaluated denotationally
(:mod:`~repro.network.simulator`) or operationally as discrete spike
events (:mod:`~repro.network.events`), with structural validation
(:mod:`~repro.network.validate`) and size/activity statistics
(:mod:`~repro.network.stats`).
"""

from .blocks import COMPUTE_KINDS, KINDS, Node
from .builder import NetworkBuilder, Ref
from .compile_plan import (
    INF_I64,
    MAX_FINITE,
    CompiledPlan,
    compile_plan,
    decode_matrix,
    decode_time,
    encode_time,
    encode_volleys,
    evaluate_batch,
    evaluate_batch_all,
    evaluate_batch_dicts,
)
from .events import EventSimulator, SimulationResult, SpikeEvent, simulate
from .generate import input_batch, random_inputs, random_network, random_volley
from .graph import Network, NetworkError
from .serialize import dumps, load, loads, network_from_dict, network_to_dict, save
from .simulator import (
    evaluate,
    evaluate_all,
    evaluate_all_interpreted,
    evaluate_vector,
)
from .timing import (
    TimeInterval,
    analyze,
    default_input_window,
    makespan_bound,
    output_intervals,
)
from .stats import ActivityStats, StructureStats, activity, structure
from .validate import (
    ValidationReport,
    check_feedforward,
    live_node_ids,
    strip_dead_nodes,
    validate,
)

__all__ = [
    "COMPUTE_KINDS",
    "INF_I64",
    "KINDS",
    "MAX_FINITE",
    "ActivityStats",
    "CompiledPlan",
    "EventSimulator",
    "Network",
    "NetworkBuilder",
    "NetworkError",
    "Node",
    "Ref",
    "SimulationResult",
    "SpikeEvent",
    "StructureStats",
    "TimeInterval",
    "ValidationReport",
    "activity",
    "analyze",
    "compile_plan",
    "default_input_window",
    "check_feedforward",
    "decode_matrix",
    "decode_time",
    "dumps",
    "encode_time",
    "encode_volleys",
    "evaluate",
    "evaluate_all",
    "evaluate_all_interpreted",
    "evaluate_batch",
    "evaluate_batch_all",
    "evaluate_batch_dicts",
    "evaluate_vector",
    "input_batch",
    "live_node_ids",
    "load",
    "loads",
    "makespan_bound",
    "network_from_dict",
    "network_to_dict",
    "output_intervals",
    "random_inputs",
    "random_network",
    "random_volley",
    "save",
    "simulate",
    "strip_dead_nodes",
    "structure",
    "validate",
]
