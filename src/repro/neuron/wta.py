"""Winner-take-all lateral inhibition (paper §IV.C, Fig. 15).

Inhibitory neurons act en masse as a "blanket of inhibition"; in TNNs the
effect is winner-take-all: the earliest spike(s) of a volley pass, the
rest are inhibited.  "First" is parameterizable (the paper): exactly the
spikes at relative time 0 (1-WTA), all spikes within a window τ of the
first (τ-WTA), or the k earliest spikes (k-WTA).

Fig. 15's construction: a ``min`` finds the first spike time; delayed by
τ it inhibits every line via ``lt``.  k-WTA uses a sorting network: the
``(k+1)``-th earliest spike time is the inhibition signal.

Both network builders and fast behavioral (volley-level) versions are
provided; they are checked equivalent in the tests.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from ..core.value import INF, Infinity, Time, check_vector, t_min
from ..network.builder import NetworkBuilder
from ..network.compile_plan import INF_I64, decode_matrix, encode_volleys, evaluate_batch
from ..network.graph import Network
from ..network.sorting import bitonic_sort


def build_wta_network(n_lines: int, *, window: int = 1, name: Optional[str] = None) -> Network:
    """Fig. 15: τ-WTA over *n_lines* (window=1 is the paper's 1-WTA).

    Output ``y_i`` re-emits ``x_i`` iff it spikes strictly within *window*
    of the volley's first spike.
    """
    if n_lines < 1:
        raise ValueError("need at least one line")
    if window < 1:
        raise ValueError("window must be at least 1")
    builder = NetworkBuilder(name or f"wta{n_lines}(tau={window})")
    inputs = [builder.input(f"x{i + 1}") for i in range(n_lines)]
    first = builder.min(*inputs, tag="first") if n_lines > 1 else inputs[0]
    inhibit = builder.inc(first, window, tag="inhibit")
    for i, x in enumerate(inputs):
        builder.output(f"y{i + 1}", builder.lt(x, inhibit, tag="pass"))
    return builder.build()


def build_k_wta_network(n_lines: int, k: int, *, name: Optional[str] = None) -> Network:
    """k-WTA: pass spikes strictly earlier than the (k+1)-th earliest.

    Ties at the (k+1)-th time are all inhibited (the network cannot break
    a simultaneity — there is no spatial tie-breaker in the s-t model), so
    fewer than k winners may pass when spikes coincide.
    """
    if not 1 <= k:
        raise ValueError("k must be at least 1")
    builder = NetworkBuilder(name or f"kwta{n_lines}(k={k})")
    inputs = [builder.input(f"x{i + 1}") for i in range(n_lines)]
    if k >= n_lines:
        # Everybody wins; outputs are the inputs.
        for i, x in enumerate(inputs):
            builder.output(f"y{i + 1}", builder.min(x, x))
        return builder.build()
    ordered = bitonic_sort(builder, list(inputs))
    inhibit = ordered[k]
    for i, x in enumerate(inputs):
        if inhibit is None:
            builder.output(f"y{i + 1}", builder.min(x, x))
        else:
            builder.output(f"y{i + 1}", builder.lt(x, inhibit, tag="pass"))
    return builder.build()


# ---------------------------------------------------------------------------
# Behavioral (volley-level) versions — used by the learning/apps layers,
# where building a network per evaluation would be wasteful.
# ---------------------------------------------------------------------------

def wta(times: Sequence[Time], *, window: int = 1) -> tuple[Time, ...]:
    """τ-WTA on a volley: keep spikes with ``t < t_min + window``."""
    if window < 1:
        raise ValueError("window must be at least 1")
    vec = check_vector(times)
    first = t_min(vec)
    if isinstance(first, Infinity):
        return tuple(vec)
    cutoff = first + window
    return tuple(x if x < cutoff else INF for x in vec)


def k_wta(times: Sequence[Time], k: int) -> tuple[Time, ...]:
    """k-WTA on a volley: keep spikes strictly before the (k+1)-th earliest."""
    if k < 1:
        raise ValueError("k must be at least 1")
    vec = check_vector(times)
    finite = sorted(x for x in vec if not isinstance(x, Infinity))
    if len(finite) <= k:
        return tuple(vec)
    cutoff = finite[k]
    return tuple(x if x < cutoff else INF for x in vec)


def wta_batch(
    volleys: Sequence[Sequence[Time]], *, window: int = 1
) -> list[tuple[Time, ...]]:
    """Vectorized :func:`wta` over a batch of volleys.

    One NumPy reduction for the whole batch; agrees elementwise with the
    scalar :func:`wta` (checked in the tests).
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    matrix = encode_volleys(volleys)
    if matrix.size == 0:
        return decode_matrix(matrix)
    first = matrix.min(axis=1)
    # Saturating add, exactly like the engine's inc: an all-silent volley
    # has cutoff ∞ (and passes through), and near-sentinel times cannot
    # overflow.
    cutoff = np.minimum(first, INF_I64 - window) + window
    return decode_matrix(np.where(matrix < cutoff[:, None], matrix, INF_I64))


def k_wta_batch(volleys: Sequence[Sequence[Time]], k: int) -> list[tuple[Time, ...]]:
    """Vectorized :func:`k_wta` over a batch of volleys.

    The (k+1)-th earliest spike per row is one partition; rows with at
    most *k* finite spikes get an ∞ cutoff, i.e. pass unchanged —
    exactly the scalar semantics.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    matrix = encode_volleys(volleys)
    if matrix.size == 0:
        return decode_matrix(matrix)
    if k >= matrix.shape[1]:
        return decode_matrix(matrix)
    # With ∞ encoded as the largest int64, a plain partition puts the
    # (k+1)-th earliest *finite* spike at index k, or ∞ when fewer than
    # k+1 lines spike — both are exactly the cutoff k_wta uses.
    cutoff = np.partition(matrix, k, axis=1)[:, k]
    return decode_matrix(np.where(matrix < cutoff[:, None], matrix, INF_I64))


def network_wta_batch(
    network: Network, volleys: Sequence[Sequence[Time]]
) -> list[tuple[Time, ...]]:
    """Evaluate a WTA *network* (Fig. 15) on a whole batch of volleys.

    One call into the compiled batched engine; output columns follow the
    network's ``y1..yn`` declaration order.
    """
    return decode_matrix(evaluate_batch(network, volleys))


def first_winner(times: Sequence[Time]) -> Optional[int]:
    """Index of the unique earliest spike, or None on silence/tie.

    The decision rule used by WTA-based classifiers: a tie means the
    volley did not discriminate.
    """
    vec = check_vector(times)
    first = t_min(vec)
    if isinstance(first, Infinity):
        return None
    winners = [i for i, x in enumerate(vec) if x == first]
    return winners[0] if len(winners) == 1 else None


def winners(times: Sequence[Time]) -> list[int]:
    """Indices of all earliest spikes (possibly several on a tie)."""
    vec = check_vector(times)
    first = t_min(vec)
    if isinstance(first, Infinity):
        return []
    return [i for i, x in enumerate(vec) if x == first]
