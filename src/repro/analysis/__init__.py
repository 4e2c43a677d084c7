"""Analysis tools: taxonomy testing, jitter robustness and ASCII plots."""

from .robustness import (
    RobustnessReport,
    column_evaluator,
    jitter_input,
    measure_robustness,
    network_evaluator,
)
from .viz import raster, response_plot, trace_raster, waveforms
from .taxonomy import (
    NetworkClass,
    TaxonomyReport,
    classify_counts,
    classify_simulation,
    synthetic_rate_trace,
)

__all__ = [
    "NetworkClass",
    "RobustnessReport",
    "TaxonomyReport",
    "classify_counts",
    "column_evaluator",
    "jitter_input",
    "measure_robustness",
    "network_evaluator",
    "classify_simulation",
    "raster",
    "response_plot",
    "synthetic_rate_trace",
    "trace_raster",
    "waveforms",
]
