"""repro.ir — the canonical program IR and shared optimizer pipeline.

One lowering (:func:`lower`), one schedule, one optimizer
(:func:`optimize_program`) feeding all four execution backends.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy(
    __name__,
    {
        "passes": ("PipelineReport", "optimize_program"),
        "program": (
            "CONST_IDENTITY", "NODE_CLASSES", "Program", "ProgramLike",
            "classify", "ensure_program", "lower", "same_structure",
        ),
    },
)
