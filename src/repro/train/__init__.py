"""The training plane: online STDP learning beside the serving plane.

``repro.serve`` answers inference volleys; ``repro.train`` consumes
*training* volleys from the same protocol stream and folds them into the
served model without downtime:

* :mod:`repro.train.ingest` — the bounded :class:`TrainingQueue` between
  the transport and the trainer, plus replayable sources (NDJSON files,
  in-memory datasets).  Backpressure by drop-and-count, never by
  blocking the serving event loop.
* :mod:`repro.train.lineage` — :class:`ModelLineage`, the append-only
  parent-fingerprint → child-fingerprint provenance chain every
  snapshot extends; queryable over the wire (``lineage`` op) and from
  ``python -m repro train``.
* :mod:`repro.train.plane` — :class:`IncrementalTrainer` (micro-stepped
  STDP with periodic fingerprint-verified snapshots) and
  :class:`TrainingPlane` (the background worker wiring queue → trainer
  → registry → hot-swap promotion).
* :mod:`repro.train.scenario` — the seeded latency-coded classification
  scenario shared by the tests, the benchmark, and the CI smoke job.

The serving contract is unchanged by training: a request admitted
against fingerprint F completes on F byte-exactly; promotion flips an
alias atomically between admissions (see
:meth:`repro.serve.service.TNNService.promote`).
"""

from __future__ import annotations

from .ingest import TrainingItem, TrainingQueue, file_source, save_items
from .lineage import LineageRecord, ModelLineage
from .plane import IncrementalTrainer, TrainingPlane
from .scenario import TrainingScenario, classification_scenario

__all__ = [
    "IncrementalTrainer",
    "LineageRecord",
    "ModelLineage",
    "TrainingItem",
    "TrainingPlane",
    "TrainingQueue",
    "TrainingScenario",
    "classification_scenario",
    "file_source",
    "save_items",
]
