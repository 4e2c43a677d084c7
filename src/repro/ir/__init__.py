"""repro.ir — the canonical program IR and shared optimizer pipeline.

One lowering (:func:`lower`), one schedule, one optimizer
(:func:`optimize_program`) feeding all four execution backends.
"""

from .passes import PipelineReport, optimize_program
from .program import (
    CONST_IDENTITY,
    NODE_CLASSES,
    Program,
    ProgramLike,
    classify,
    ensure_program,
    lower,
    same_structure,
)

__all__ = [
    "CONST_IDENTITY",
    "NODE_CLASSES",
    "PipelineReport",
    "Program",
    "ProgramLike",
    "classify",
    "ensure_program",
    "lower",
    "optimize_program",
    "same_structure",
]
