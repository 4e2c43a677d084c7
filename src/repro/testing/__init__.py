"""Differential conformance and fault-injection harness.

The repository carries four executable semantics of the space-time
network language (interpreted walk, compiled int64 batch plans,
event-driven simulation, GRL gate circuits); the paper's claims are that
they all denote the same bounded s-t function.  This package turns that
claim into a continuously exercised gate:

* :mod:`repro.testing.generators` — seeded random networks (layered
  DAGs, SRM0/WTA/micro-weight constructions) and adversarial volleys;
* :mod:`repro.testing.oracles` — runs any list of the
  :data:`repro.runtime.engines.ENGINES` backends over one batch, with a
  uniform, sentinel-saturated comparison semantics;
* :mod:`repro.testing.conformance` — the differential sweep and the
  fault-injection self-check;
* :mod:`repro.testing.faults` — injectable mutants (spike jitter,
  dropped lines, structural edits, plan reordering) the diff must catch;
* :mod:`repro.testing.shrink` — greedy reduction of any disagreement to
  a minimal (network, volley) reproducer plus an emitted pytest module;
* :mod:`repro.testing.served` — served-vs-direct byte-identity checks
  for the :mod:`repro.serve` stack (the serving layer as a fifth
  semantics).

CLI: ``python -m repro conformance --seed N --count K [--smoke]``.
"""

from .conformance import (
    ConformanceReport,
    FaultSelfCheckReport,
    Mismatch,
    diff_backends,
    run_case,
    run_conformance,
    run_fault_selfcheck,
)
from .faults import (
    FAULT_CLASSES,
    FaultClass,
    FaultedOracle,
    PlanReorderOracle,
    drop_lines,
    jitter_volley,
    random_mutant,
    stuck_at_zero,
)
from .generators import (
    ConformanceCase,
    adversarial_volleys,
    generate_case,
    random_kernel_network,
    random_layered_network,
)
from .served import (
    CachePoisonFault,
    CacheSelfCheckReport,
    ServedMismatch,
    ServedReport,
    check_served,
    run_served_cache_selfcheck,
)
from .oracles import BackendRun, run_backends, saturate, saturate_outputs
from .shrink import (
    emit_mutant_test,
    emit_regression_test,
    minimize_case,
    restrict_to_output,
    shrink_network,
    shrink_volley,
)

__all__ = [
    "BackendRun",
    "CachePoisonFault",
    "CacheSelfCheckReport",
    "ConformanceCase",
    "ConformanceReport",
    "FAULT_CLASSES",
    "FaultClass",
    "FaultSelfCheckReport",
    "FaultedOracle",
    "Mismatch",
    "PlanReorderOracle",
    "ServedMismatch",
    "ServedReport",
    "adversarial_volleys",
    "check_served",
    "diff_backends",
    "drop_lines",
    "emit_mutant_test",
    "emit_regression_test",
    "generate_case",
    "jitter_volley",
    "minimize_case",
    "random_kernel_network",
    "random_layered_network",
    "random_mutant",
    "restrict_to_output",
    "run_backends",
    "run_case",
    "run_conformance",
    "run_fault_selfcheck",
    "run_served_cache_selfcheck",
    "saturate",
    "saturate_outputs",
    "shrink_network",
    "shrink_volley",
    "stuck_at_zero",
]
