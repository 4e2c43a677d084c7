"""repro.ir — the optimizer pipeline over the one network type.

Every engine runs a :class:`~repro.network.graph.Network`, which carries
its own level schedule; this package rewrites one.
:func:`optimize_program` simplifies a network in one sweep and strips
dead rows, and :func:`repro.ir.sorters.group_sorters` puts ``rank`` rows
in place of each recognized sorting network.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy(
    __name__,
    {
        "passes": ("PipelineReport", "optimize_program"),
    },
)
