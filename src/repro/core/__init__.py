"""Core of the reproduction: the space-time algebra itself.

Values (:mod:`~repro.core.value`), primitive operations
(:mod:`~repro.core.algebra`), the lattice structure
(:mod:`~repro.core.lattice`), the s-t function model and its defining
properties (:mod:`~repro.core.function`, :mod:`~repro.core.properties`),
normalized function tables (:mod:`~repro.core.table`), and the
constructive completeness results (:mod:`~repro.core.synthesis`).
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy(
    __name__,
    {
        "algebra": (
            "PRIMITIVES", "add", "delay", "eq", "first_n", "inc", "le", "lt",
            "maximum", "minimum",
        ),
        "function": (
            "SpaceTimeFunction", "enumerate_domain",
            "enumerate_normalized_domain", "st_function",
        ),
        "completeness": (
            "NON_IMPLEMENTABLE", "Classification", "classify_function",
            "implementable_fraction",
        ),
        "minimize": ("minimize", "minimize_with_generalization"),
        "lattice": (
            "BOTTOM", "TOP", "LawViolation", "check_lattice_laws",
            "has_complement", "join", "leq", "meet", "standard_domain",
        ),
        "properties": (
            "Counterexample", "VerificationReport", "check_bounded_history",
            "check_causality", "check_invariance", "check_totality",
            "sample_vectors", "verify",
        ),
        "synthesis": (
            "max_from_min_lt", "max_into", "max_tree", "synthesis_cost",
            "synthesize",
        ),
        "table": ("FIG7_TABLE", "NormalizedTable", "TableError"),
        "value": (
            "INF", "Infinity", "Time", "TimeVector", "as_time", "check_time",
            "check_vector", "finite_values", "is_finite", "is_normalized",
            "is_time", "normalize", "shift", "t_max", "t_min",
        ),
    },
)
