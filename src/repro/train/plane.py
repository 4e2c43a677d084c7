"""The incremental trainer and the plane that runs it beside serving.

:class:`IncrementalTrainer` turns the batch-oriented
:class:`~repro.learning.stdp.STDPTrainer` into an online consumer:
volleys arrive one at a time, updates apply in micro-steps, and every
``snapshot_every`` presentations the evolving column is compiled,
serialized, fingerprint-verified, and registered as a new immutable
model (see :meth:`repro.serve.registry.ModelRegistry.register` — the
round-trip check runs on every snapshot).

:class:`TrainingPlane` wires the trainer to a live
:class:`~repro.serve.service.TNNService`: a background thread drains the
bounded :class:`~repro.train.ingest.TrainingQueue`, trains, snapshots,
records lineage, and hot-swaps the serving alias via the service's
warm-then-flip promotion path.  The serving plane never blocks on any
of it — ingestion drops (and counts) when the queue is full, and
training runs strictly off the admission path.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Callable, Optional

from ..learning.stdp import Homeostasis, STDPTrainer, TrainingStep
from ..neuron.column import Column, compile_column
from ..obs import metrics as _obs_metrics
from .ingest import TrainingItem, TrainingQueue
from .lineage import LineageRecord, ModelLineage


def _rule_params(rule) -> dict:
    """The rule's parameters as a JSON-safe dict (lineage metadata)."""
    if dataclasses.is_dataclass(rule):
        return {"rule": type(rule).__name__, **dataclasses.asdict(rule)}
    return {"rule": type(rule).__name__}


class IncrementalTrainer:
    """Online STDP over one column, snapshot-ready at any step.

    Wraps an :class:`STDPTrainer` (building a seeded one with
    homeostatic thresholds when none is given) and tracks presentations
    separately from applied updates — a silent column presents without
    learning, and the snapshot cadence counts presentations.
    """

    def __init__(
        self,
        column: Column,
        *,
        trainer: Optional[STDPTrainer] = None,
        rule=None,
        seed: int = 0,
        model_name: str = "online",
    ) -> None:
        self.column = column
        self.trainer = trainer or STDPTrainer(
            column, rule, seed=seed, homeostasis=Homeostasis(column)
        )
        if self.trainer.column is not column:
            raise ValueError("trainer must train the plane's own column")
        self.model_name = model_name
        self.presented = 0

    @property
    def applied(self) -> int:
        """Updates actually applied (presentations with a WTA winner)."""
        return self.trainer.steps_taken

    def step(self, item: TrainingItem) -> TrainingStep:
        """Present one volley; returns the step record."""
        step = self.trainer.train_step(item.volley)
        self.presented += 1
        if step.winner is not None:
            _obs_metrics.METRICS.inc("train.steps")
        return step

    def compile_snapshot(self):
        """The column as an immutable network, inference-ready.

        Homeostatic threshold inflation is training-time state
        (:meth:`Homeostasis.reset`), so it is stripped before
        compilation — the served model evaluates at base thresholds.
        The constant network name keeps the fingerprint a pure function
        of the learned structure, so an unchanged column deduplicates.
        """
        if self.trainer.homeostasis is not None:
            self.trainer.homeostasis.reset(self.column)
        return compile_column(self.column, name=self.model_name)


class TrainingPlane:
    """Queue → trainer → snapshot → lineage → promote, off-thread.

    Lifecycle: construct, :meth:`bootstrap` (registers the seed column
    and points *alias* at it), :meth:`start` the worker, feed
    :meth:`ingest`, :meth:`stop` (final snapshot by default).  Tests and
    the benchmark can instead drive :meth:`train_step` /
    :meth:`snapshot` synchronously — the worker thread is a loop over
    exactly those calls.
    """

    def __init__(
        self,
        service,
        column: Column,
        *,
        alias: str,
        trainer: Optional[STDPTrainer] = None,
        rule=None,
        seed: int = 0,
        queue: Optional[TrainingQueue] = None,
        queue_capacity: int = 1024,
        snapshot_every: int = 50,
        probe: Optional[Callable[[], Optional[float]]] = None,
        lineage: Optional[ModelLineage] = None,
        model_name: str = "online",
    ) -> None:
        if snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.service = service
        self.alias = alias
        self.incremental = IncrementalTrainer(
            column,
            trainer=trainer,
            rule=rule,
            seed=seed,
            model_name=model_name,
        )
        self.queue = queue or TrainingQueue(queue_capacity)
        self.snapshot_every = snapshot_every
        self.probe = probe
        self.lineage = lineage or ModelLineage(alias=alias)
        self.live_fingerprint: Optional[str] = None
        self.last_accuracy: Optional[float] = None
        self.snapshots = 0
        self.promotions = 0
        self._since_snapshot = 0
        self._state_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: The live gauges this plane owns in the metrics registry
        #: (``last_accuracy`` stays out until a probe has run).
        self._gauges = {
            "training.presented": lambda: self.incremental.presented,
            "training.applied": lambda: self.incremental.applied,
            "training.snapshots": lambda: self.snapshots,
            "training.promotions": lambda: self.promotions,
            "training.queue.depth": lambda: self.queue.stats()["depth"],
            "training.queue.dropped": lambda: self.queue.stats()["dropped"],
            "training.last_accuracy": lambda: self.last_accuracy,
        }
        _obs_metrics.METRICS.add_gauges(self._gauges)

    # -- lifecycle -------------------------------------------------------

    def bootstrap(self) -> str:
        """Register the seed column and alias it live; returns its id.

        The seed snapshot is lineage record zero (``parent=None``), so
        every later fingerprint chains back to the model the plane
        started from.
        """
        if self.live_fingerprint is not None:
            raise RuntimeError("training plane already bootstrapped")
        return self.snapshot(force=True)["model"]

    def start(self) -> None:
        """Run the ingestion-train-snapshot loop in a daemon thread."""
        if self.live_fingerprint is None:
            self.bootstrap()
        if self._thread is not None:
            raise RuntimeError("training plane already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="train-plane", daemon=True
        )
        self._thread.start()

    def _run_loop(self) -> None:
        while not self._stop.is_set():
            item = self.queue.get(timeout=0.05)
            if item is None:
                continue
            self.train_step(item)

    def stop(self, *, final_snapshot: bool = True, timeout: float = 10.0) -> None:
        """Stop the worker; by default snapshot any untrained remainder."""
        self._stop.set()
        self.queue.close()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        for item in self.queue.drain():
            self.incremental.step(item)
            self._since_snapshot += 1
        if final_snapshot and self._since_snapshot > 0:
            self.snapshot()
        _obs_metrics.METRICS.remove_gauges(self._gauges)

    # -- the training path ----------------------------------------------

    def ingest(self, item: TrainingItem) -> bool:
        """Hand one wire volley to the queue; ``False`` = dropped."""
        return self.queue.put(item)

    def train_step(self, item: TrainingItem) -> TrainingStep:
        """Present one volley and snapshot when the cadence is due."""
        with self._state_lock:
            step = self.incremental.step(item)
            self._since_snapshot += 1
            due = self._since_snapshot >= self.snapshot_every
        if due:
            self.snapshot()
        return step

    def snapshot(self, *, force: bool = False) -> Optional[dict]:
        """Compile, register, record, and promote the current column.

        Returns the promotion summary, or ``None`` when the column's
        fingerprint has not moved since the live snapshot (STDP at the
        weight-resolution bounds often applies zero net change; a
        self-loop would pollute the lineage and churn the caches).
        ``force`` registers even an unchanged fingerprint — used by
        :meth:`bootstrap`.
        """
        with self._state_lock:
            network = self.incremental.compile_snapshot()
            fingerprint = network.fingerprint()
            if fingerprint == self.live_fingerprint and not force:
                self._since_snapshot = 0
                return None
            since = self._since_snapshot
            parent = self.live_fingerprint
        self.service.register(network)
        accuracy = self.probe() if self.probe is not None else None
        # The parent is retired only once the new head is published, so
        # the lineage never names a model the registry has dropped.
        summary = self.service.promote(self.alias, fingerprint, retire=False)
        record = LineageRecord(
            parent=parent,
            child=fingerprint,
            steps=since,
            total_steps=self.incremental.applied,
            rule=_rule_params(self.incremental.trainer.rule),
            accuracy=accuracy,
            promoted=True,
        )
        # The new lineage head and the live version are published in one
        # step: a reader holding the state lock never sees one without
        # the other.
        with self._state_lock:
            self.lineage.append(record)
            self.live_fingerprint = fingerprint
            self.last_accuracy = accuracy
            self.snapshots += 1
            self.promotions += 1
            self._since_snapshot = 0
        summary["retired"] = self.service.retire(summary["previous"])
        _obs_metrics.METRICS.inc("train.snapshots")
        _obs_metrics.METRICS.inc("train.promotions")
        return summary

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict:
        """The ``training`` section of the service's ``stats``."""
        with self._state_lock:
            return {
                "alias": self.alias,
                "live": self.live_fingerprint,
                "presented": self.incremental.presented,
                "applied": self.incremental.applied,
                "snapshots": self.snapshots,
                "promotions": self.promotions,
                "last_accuracy": self.last_accuracy,
                "queue": self.queue.stats(),
                "lineage": len(self.lineage),
            }
