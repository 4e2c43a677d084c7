"""The benchmark's models and volley streams, fixed here on purpose.

The SRM0-column recipe is a private copy of the one in
``benchmarks/bench_serving.py``: later edits to that bench must not be
able to shift this benchmark's workload.  Every stream is a pure
function of ``(workload, seed)`` — and of nothing else — so two runs with
one seed send the same bytes, and the byte-check can regenerate any
request from its id.

The seed drives the eval volleys only.  ``train_mixed`` sends the
training scenario's items in the scenario's own order on every run: each
order trains another sequence of snapshots, whose sizes, and with them
the cost of each promotion, differ by about 20 % from order to order.

Volleys are int64 rows with :data:`SILENT` (the engine's ``∞`` sentinel)
on silent lines; :func:`wire_volley` renders one for the NDJSON wire.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: The engine's ∞ sentinel (``repro.network.compile_plan.INF_I64``).
SILENT = int(np.iinfo(np.int64).max)

#: Volley streams are generated in blocks of this many rows; block *b*
#: of a stream depends only on ``(seed, stream, b)``.
BLOCK = 4096

#: ``narrow_repeat``: base patterns, shifts per base, and Zipf exponent.
REPEAT_BASES = 2048
REPEAT_SHIFTS = 8
REPEAT_ZIPF_S = 1.0

#: The serving default the repeat workload is sized against
#: (``repro.runtime.result_cache.ResultCache`` max_entries).
RESULT_CACHE_ENTRIES = 4096

#: Stream ids, so two streams of one seed never share random state.
_STREAM_IDS = {"unique": 1, "repeat": 2}


@dataclass(frozen=True)
class Workload:
    """One traffic mix: the model it serves and how it is driven."""

    name: str
    why: str
    #: ``"column"`` (an SRM0 column of ``inputs`` synapses, served from a
    #: model file) or ``"train"`` (the server's own training scenario).
    model: str
    inputs: int
    #: ``"unique"`` or ``"repeat"`` (see :class:`VolleyStream`).
    traffic: str
    #: Open-loop eval rate of the latency phase (requests/s).
    rate: float
    #: ``train`` ops per second beside the evals (``train_mixed`` only).
    train_rate: float = 0.0
    #: The server's ``--snapshot-every`` (``train_mixed`` only).
    snapshot_every: int = 25
    #: Server starts timed for ``setup_s`` (the last one serves the run).
    starts: int = 5


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The narrow column's closed loop reaches 7-10 k req/s, but on a
        # shared machine's slow spells only 4.4 k: its open loops run at
        # 2,000 req/s so that their queue never grows.
        Workload(
            "narrow_unique",
            "10-input column, volleys never repeat: wire, admission and "
            "pool IPC do the work, engine and result cache almost none",
            "column", 10, "unique", 2000.0,
        ),
        Workload(
            "narrow_repeat",
            "10-input column, 2048 Zipf bases x 8 shifts: the result cache "
            "serves ~3/4 of requests and a shift-normalized key could serve more",
            "column", 10, "repeat", 2000.0,
        ),
        # One start: the IR passes run twice in each 80-input start, for
        # 20-35 s.  The open loop runs at a tenth of the closed loop's
        # rate: small batches of this column cost so much each that the
        # server falls behind from about 750 req/s.
        Workload(
            "wide_unique",
            "80-input column, unique volleys: the engine does most of the "
            "serving work and the IR pass pipeline most of the set-up",
            "column", 80, "unique", 400.0, starts=1,
        ),
        Workload(
            "train_mixed",
            "evals on the live training alias beside train ops at 10/s: "
            "snapshots register, warm and promote models while serving",
            "train", 12, "unique", 500.0, train_rate=10.0,
        ),
    )
}

#: ``--smoke`` stand-in for the 80-input column (keeps set-up under a second).
SMOKE_WIDE_INPUTS = 20


def column_inputs(workload: Workload, *, smoke: bool) -> int:
    """Synapse count of the workload's served column."""
    if smoke and workload.name == "wide_unique":
        return SMOKE_WIDE_INPUTS
    return workload.inputs


def srm0_column(n_inputs: int, seed: int = 0):
    """A seeded SRM0 column with *n_inputs* synapses (fixed model recipe)."""
    from repro.neuron.response import ResponseFunction
    from repro.neuron.srm0 import SRM0Neuron
    from repro.neuron.srm0_network import build_srm0_network

    rng = random.Random(seed)
    base = ResponseFunction.piecewise_linear(amplitude=2, rise=1, fall=3)
    weights = [rng.randint(1, 3) for _ in range(n_inputs)]
    neuron = SRM0Neuron.homogeneous(
        n_inputs, weights, base_response=base, threshold=3
    )
    return build_srm0_network(neuron, name=f"e2e-col-{n_inputs}in")


def training_seed_network():
    """The model ``serve --train`` bootstraps (scenario seed 0, untrained)."""
    from repro.neuron.column import compile_column
    from repro.train import classification_scenario

    scenario = classification_scenario(seed=0)
    return compile_column(scenario.column, name=scenario.name)


def _rng(seed: int, stream: str, block: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM_IDS[stream], block])


def unique_block(rng: np.random.Generator, rows: int, arity: int) -> np.ndarray:
    """Times uniform on 0..1000, each line silent with probability 0.2."""
    times = rng.integers(0, 1001, size=(rows, arity), dtype=np.int64)
    times[rng.random((rows, arity)) < 0.2] = SILENT
    return times


def repeat_bases(seed: int, arity: int) -> np.ndarray:
    """The ``narrow_repeat`` base patterns (block 0 of the repeat stream)."""
    return unique_block(_rng(seed, "repeat", 0), REPEAT_BASES, arity)


def _zipf_p() -> np.ndarray:
    p = 1.0 / np.arange(1, REPEAT_BASES + 1) ** REPEAT_ZIPF_S
    return p / p.sum()


class VolleyStream:
    """Request *i*'s volley, a pure function of ``(kind, seed, arity, i)``.

    ``unique``: fresh uniform volleys.  ``repeat``: base pattern *k*
    (drawn Zipf(s) over :data:`REPEAT_BASES` ranks) shifted by
    ``c ∈ 0..REPEAT_SHIFTS-1`` on every firing line — the paper's
    invariance, f(x + c) = f(x) + c, makes the shifted copies one
    function evaluation apart.  :meth:`key` names a request's
    ``(base, shift)`` pair (``None`` for ``unique``).
    """

    def __init__(self, kind: str, seed: int, arity: int) -> None:
        if kind not in ("unique", "repeat"):
            raise ValueError(f"unknown traffic kind {kind!r}")
        self.kind, self.seed, self.arity = kind, seed, arity
        self._blocks: dict[int, tuple] = {}
        self._bases = repeat_bases(seed, arity) if kind == "repeat" else None

    def _block(self, b: int) -> tuple:
        cached = self._blocks.get(b)
        if cached is None:
            if self.kind == "unique":
                rows = unique_block(_rng(self.seed, "unique", b), BLOCK, self.arity)
                cached = (rows, None)
            else:
                rng = _rng(self.seed, "repeat", b + 1)
                base = rng.choice(REPEAT_BASES, size=BLOCK, p=_zipf_p())
                shift = rng.integers(0, REPEAT_SHIFTS, size=BLOCK)
                rows = self._bases[base]
                rows = np.where(rows == SILENT, SILENT, rows + shift[:, None])
                cached = (rows, base * REPEAT_SHIFTS + shift)
            self._blocks[b] = cached
        return cached

    def volley(self, i: int) -> np.ndarray:
        rows, _keys = self._block(i // BLOCK)
        return rows[i % BLOCK]

    def rows(self, ids) -> np.ndarray:
        """The ``(len(ids), arity)`` matrix of the given request ids."""
        return np.stack([self.volley(i) for i in ids]) if len(ids) else (
            np.empty((0, self.arity), dtype=np.int64)
        )

    def key(self, i: int) -> Optional[int]:
        _rows, keys = self._block(i // BLOCK)
        return None if keys is None else int(keys[i % BLOCK])


def wire_volley(row) -> str:
    """A volley row as its JSON array text (``null`` = silent)."""
    return "[" + ",".join("null" if v == SILENT else str(v) for v in row.tolist()) + "]"


def simulate_lru(keys, capacity: int = RESULT_CACHE_ENTRIES) -> float:
    """Exact-key LRU hit ratio of a key sequence (the result cache's policy)."""
    cache: "OrderedDict[int, None]" = OrderedDict()
    hits = 0
    for key in keys:
        if key in cache:
            cache.move_to_end(key)
            hits += 1
        else:
            cache[key] = None
            if len(cache) > capacity:
                cache.popitem(last=False)
    return hits / max(1, len(keys))
