"""The differential conformance engine and fault-injection self-check.

Ties the subsystem together:

1. :func:`diff_backends` — run every registered backend over a volley
   batch and report the volleys where any two backends' canonical
   (sentinel-saturated) outputs differ;
2. :func:`run_conformance` — sweep seeded random cases
   (:func:`repro.testing.generators.generate_case`) through the diff,
   shrinking every disagreement to a minimal reproducer with an emitted
   regression test;
3. :func:`run_fault_selfcheck` — inject every fault class from
   :data:`repro.testing.faults.FAULT_CLASSES` into a victim backend and
   require the diff to catch it, shrinking the witness volley.  A sweep
   that reports "all clean" is only trustworthy alongside a self-check
   that reports "all mutants killed".

``python -m repro conformance --seed N --count K [--smoke]`` is the CLI
face of :func:`run_conformance`; the CI smoke job runs it on every PR.
"""

from __future__ import annotations

import random
import zlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Optional

from ..core.value import Time
from ..network.graph import Network
from ..obs.trace import Divergence, TraceEvent, first_divergence
from .faults import FAULT_CLASSES, FaultClass
from .generators import ConformanceCase, generate_case
from ..runtime.engines import (
    ENGINES,
    BackendEngine,
    InterpretedEngine,
    Outputs,
    Volley,
)
from .oracles import BackendRun, run_backends, saturate_outputs
from .shrink import (
    emit_mutant_test,
    emit_regression_test,
    format_volley,
    minimize_case,
    shrink_volley,
)

#: Disagreements reported per case before moving on (shrinking is slow).
MAX_MISMATCHES_PER_CASE = 3


@dataclass
class Mismatch:
    """One volley where two backends' canonical outputs differ."""

    case_name: str
    seed: int
    volley: Volley
    outputs: dict[str, Outputs]
    minimized_volley: Optional[Volley] = None
    minimized_network: Optional[Network] = None
    regression_test: Optional[str] = None
    #: Canonical spike traces of the two disagreeing backends on the
    #: original (network, volley), keyed by backend name; absent when a
    #: backend cannot trace the case.
    traces: dict[str, list[TraceEvent]] = field(default_factory=dict)
    #: First node where the two traces split — the root-cause pointer.
    divergence: Optional[Divergence] = None

    def __str__(self) -> str:
        witness = self.minimized_volley or self.volley
        parts = "; ".join(
            f"{name}->{out}" for name, out in sorted(self.outputs.items())
        )
        text = f"{self.case_name} at {format_volley(witness)}: {parts}"
        if self.divergence is not None:
            left, right = sorted(self.traces)
            text += f" [{self.divergence.describe(left, right)}]"
        return text


@dataclass
class FaultDetection:
    """Outcome of injecting one fault class."""

    fault: str
    detected: bool
    attempts: int
    case_name: str = ""
    oracle_name: str = ""
    witness: Optional[Volley] = None
    regression_test: Optional[str] = None
    #: Rendered :meth:`~repro.obs.trace.Divergence.describe` of the
    #: healthy vs faulted trace — names the first divergent node.
    divergence: Optional[str] = None

    def __str__(self) -> str:
        if not self.detected:
            return f"{self.fault}: NOT DETECTED after {self.attempts} attempt(s)"
        text = (
            f"{self.fault}: detected on {self.case_name} via "
            f"{self.oracle_name}, minimal witness {format_volley(self.witness)}"
        )
        if self.divergence is not None:
            text += f" [{self.divergence}]"
        return text


@dataclass
class FaultSelfCheckReport:
    """Detection record for every injected fault class."""

    detections: list[FaultDetection] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(d.detected for d in self.detections)

    def __str__(self) -> str:
        status = "all killed" if self.ok else "MUTANTS SURVIVED"
        lines = [f"fault self-check ({status}):"]
        lines.extend(f"  {d}" for d in self.detections)
        return "\n".join(lines)


@dataclass
class ConformanceReport:
    """Everything one conformance sweep learned."""

    seed: int
    count: int
    cases: int = 0
    volleys_checked: int = 0
    comparisons: int = 0
    skips: dict[str, int] = field(default_factory=dict)
    skip_reasons: dict[str, str] = field(default_factory=dict)
    mismatches: list[Mismatch] = field(default_factory=list)
    fault_report: Optional[FaultSelfCheckReport] = None

    @property
    def ok(self) -> bool:
        clean = not self.mismatches
        faults_ok = self.fault_report.ok if self.fault_report else True
        return clean and faults_ok

    def summary(self) -> str:
        lines = [
            f"conformance sweep: seeds {self.seed}..{self.seed + self.count - 1}",
            f"  {self.cases} case(s), {self.volleys_checked} volley(s), "
            f"{self.comparisons} backend comparison(s)",
        ]
        for name, skipped in sorted(self.skips.items()):
            reason = self.skip_reasons.get(name, "")
            lines.append(f"  skipped {name} on {skipped} case(s) ({reason})")
        if self.mismatches:
            lines.append(f"  {len(self.mismatches)} DISAGREEMENT(S):")
            lines.extend(f"    {m}" for m in self.mismatches)
        else:
            lines.append("  zero cross-backend disagreements")
        if self.fault_report is not None:
            lines.append(str(self.fault_report))
        lines.append("verdict: " + ("OK" if self.ok else "FAIL"))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------

def find_disagreements(run: BackendRun) -> list[tuple[int, dict[str, Outputs]]]:
    """Volley indices where the backends that ran do not all agree."""
    found: list[tuple[int, dict[str, Outputs]]] = []
    for index in range(len(run.volleys)):
        outputs = {name: rows[index] for name, rows in run.results.items()}
        if len(set(outputs.values())) > 1:
            found.append((index, outputs))
    return found


def diff_backends(
    network: Network,
    volleys: Sequence[Volley],
    *,
    params: Optional[Mapping[str, Time]] = None,
    oracles: Optional[Sequence[BackendEngine]] = None,
    optimize: bool = False,
) -> tuple[BackendRun, list[tuple[int, dict[str, Outputs]]]]:
    """Run the backends and return ``(raw run, disagreement list)``.

    ``optimize=True`` diffs the backends on the program a serving
    worker loads (:func:`~repro.testing.oracles.run_backends`) instead
    of the raw network.
    """
    run = run_backends(
        network, volleys, params=params, oracles=oracles, optimize=optimize
    )
    return run, find_disagreements(run)


def _disagreeing_output(
    network: Network, outputs: dict[str, Outputs]
) -> Optional[str]:
    """Name of the first output column whose values differ across backends."""
    rows = list(outputs.values())
    for column, out_name in enumerate(network.output_names):
        if len({row[column] for row in rows}) > 1:
            return out_name
    return None


def attach_divergence(
    mismatch: Mismatch,
    network: Network,
    oracles: Sequence[BackendEngine],
    params: Optional[Mapping[str, Time]],
) -> None:
    """Trace the two disagreeing backends and record where they split.

    Picks the first pair of backends in *mismatch.outputs* with unequal
    canonical outputs, traces each on the original (network, volley),
    and stores the traces plus the first divergent node.  Backends that
    cannot trace the case (``trace()`` → ``None``) leave the mismatch
    without a divergence — the output-level diff still stands.
    """
    by_name = {o.name: o for o in oracles}
    names = sorted(mismatch.outputs)
    pair: Optional[tuple[str, str]] = None
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if mismatch.outputs[a] != mismatch.outputs[b]:
                pair = (a, b)
                break
        if pair:
            break
    if pair is None:  # pragma: no cover - callers pass real disagreements
        return
    traces: dict[str, list] = {}
    for name in pair:
        oracle = by_name.get(name)
        trace = (
            oracle.trace(network, mismatch.volley, params=params)
            if oracle is not None
            else None
        )
        if trace is None:
            return
        traces[name] = trace
    mismatch.traces = traces
    mismatch.divergence = first_divergence(traces[pair[0]], traces[pair[1]])


def _still_disagrees(
    oracles: Sequence[BackendEngine],
    params: Optional[Mapping[str, Time]],
    *,
    optimize: bool = False,
) -> "callable":
    """A shrink predicate: the backends still split on (network, volley)."""

    def predicate(network: Network, volley: Volley) -> bool:
        _, found = diff_backends(
            network, [volley], params=params, oracles=oracles,
            optimize=optimize,
        )
        return bool(found)

    return predicate


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

def run_case(
    case: ConformanceCase,
    *,
    oracles: Optional[Sequence[BackendEngine]] = None,
    shrink: bool = True,
    optimize: bool = False,
) -> tuple[BackendRun, list[Mismatch]]:
    """Diff one generated case, shrinking any disagreements found.

    With ``optimize=True`` all backends consume the same served
    :class:`~repro.network.graph.Network`; divergence tracing then runs on
    that shared program and shrinking re-optimizes each candidate, so
    the minimized reproducer still splits the *optimized* backends.
    """
    oracles = (
        list(oracles) if oracles is not None else [engine() for engine in ENGINES]
    )
    params = case.params or None
    run, found = diff_backends(
        case.network, case.volleys, params=params, oracles=oracles,
        optimize=optimize,
    )
    traced = run.program if run.program is not None else case.network
    mismatches: list[Mismatch] = []
    for index, outputs in found[:MAX_MISMATCHES_PER_CASE]:
        mismatch = Mismatch(
            case_name=case.name,
            seed=case.seed,
            volley=run.volleys[index],
            outputs=outputs,
        )
        attach_divergence(mismatch, traced, oracles, params)
        if shrink:
            predicate = _still_disagrees(oracles, params, optimize=optimize)
            network, volley = minimize_case(
                case.network,
                run.volleys[index],
                predicate,
                output=_disagreeing_output(case.network, outputs),
                # Parameter bindings reference terminals by name, which
                # structural shrinking preserves (terminals are pinned).
            )
            mismatch.minimized_network = network
            mismatch.minimized_volley = volley
            mismatch.regression_test = emit_regression_test(
                network,
                volley,
                params=case.params,
                title=f"conformance_seed{case.seed}",
                provenance=case.name,
            )
        mismatches.append(mismatch)
    return run, mismatches


def run_conformance(
    seed: int = 0,
    count: int = 50,
    *,
    smoke: bool = False,
    with_faults: bool = True,
    shrink: bool = True,
    optimize: bool = False,
    family: Optional[str] = None,
) -> ConformanceReport:
    """Sweep *count* seeded cases and (optionally) the fault self-check.

    The acceptance gate for the repository: clean networks must produce
    **zero** cross-backend disagreements while every injected fault
    class is detected.  ``smoke=True`` shrinks case sizes and volley
    counts for CI.  ``optimize=True`` runs the sweep on the program a
    serving worker loads instead of the raw networks; every backend
    consumes that one program, so a rewrite bug they all inherit reads
    OK — it checks the engines, not the optimizer.  (The fault
    self-check always runs unoptimized: its mutants are Network-level
    edits.)  *family*
    pins every case to one generator family (e.g. ``"kernels"``) so a
    sweep can target one construction surface; the fault self-check
    inherits the pin, proving the harness keeps its teeth on that
    family's victims too.
    """
    oracles = [engine() for engine in ENGINES]
    report = ConformanceReport(seed=seed, count=count)
    for offset in range(count):
        case = generate_case(seed + offset, smoke=smoke, family=family)
        run, mismatches = run_case(
            case, oracles=oracles, shrink=shrink, optimize=optimize
        )
        report.cases += 1
        report.volleys_checked += len(run.volleys)
        report.comparisons += len(run.volleys) * len(run.results)
        for name, reason in run.skipped.items():
            report.skips[name] = report.skips.get(name, 0) + 1
            report.skip_reasons.setdefault(name, reason)
        report.mismatches.extend(mismatches)
    if with_faults:
        report.fault_report = run_fault_selfcheck(
            seed, smoke=smoke, shrink=shrink, family=family
        )
    return report


# ---------------------------------------------------------------------------
# Fault-injection self-check
# ---------------------------------------------------------------------------

def run_fault_selfcheck(
    seed: int = 0,
    *,
    classes: Optional[Sequence[FaultClass]] = None,
    attempts: int = 12,
    smoke: bool = False,
    shrink: bool = True,
    family: Optional[str] = None,
) -> FaultSelfCheckReport:
    """Prove the diff has teeth: inject each fault class until caught.

    For each class, generates cases from derived seeds, builds the
    faulted victim oracle, and diffs it against the interpreted
    reference.  A structurally injected fault can be semantically inert
    on a given case (an equivalent mutant), so up to *attempts* cases
    are tried before declaring the class undetected.  Each detection's
    witness volley is shrunk to a minimal reproducer.  *family* pins the
    victim cases to one generator family (kernel-built victims, etc.).
    """
    classes = list(classes) if classes is not None else list(FAULT_CLASSES)
    report = FaultSelfCheckReport()
    reference = InterpretedEngine()
    for fault in classes:
        detection = FaultDetection(fault=fault.name, detected=False, attempts=0)
        for attempt in range(attempts):
            # zlib.crc32, not hash(): the latter is salted per process
            # and would make self-check seeds unreproducible.
            case_seed = (
                (seed + 1) * 7919
                + attempt * 104729
                + zlib.crc32(fault.name.encode()) % 1000
            )
            case = generate_case(case_seed, smoke=smoke, family=family)
            rng = random.Random(case_seed ^ 0xFA417)
            faulted = fault.build(case, rng)
            detection.attempts = attempt + 1
            if faulted is None:
                continue
            pair = [reference, faulted]
            params = case.params or None
            _, found = diff_backends(
                case.network, case.volleys, params=params, oracles=pair
            )
            if not found:
                continue
            index, outputs = found[0]
            witness = case.volleys[index]
            if shrink:
                def disagrees(volley: Volley) -> bool:
                    _, hits = diff_backends(
                        case.network, [volley], params=params, oracles=pair
                    )
                    return bool(hits)

                witness = shrink_volley(witness, disagrees)
            detection.detected = True
            detection.case_name = case.name
            detection.oracle_name = faulted.name
            detection.witness = witness
            # Explain the kill: where do the healthy and faulted spike
            # traces first split?  (Oracles that cannot trace — e.g. the
            # plan-reorder executor — simply leave this blank.)
            healthy_trace = reference.trace(case.network, witness, params=params)
            faulted_trace = faulted.trace(case.network, witness, params=params)
            if healthy_trace is not None and faulted_trace is not None:
                split = first_divergence(healthy_trace, faulted_trace)
                if split is not None:
                    detection.divergence = split.describe(
                        "healthy", faulted.name, network=case.network
                    )
            if shrink:
                detection.regression_test = _emit_fault_repro(
                    fault, case, faulted, witness
                )
            break
        report.detections.append(detection)
    return report


def _emit_fault_repro(
    fault: FaultClass,
    case: ConformanceCase,
    faulted: BackendEngine,
    witness: Volley,
) -> str:
    """Render the strongest reproducer available for a detection."""
    transform = getattr(faulted, "network_transform", None)
    if transform is not None:
        mutant = transform(case.network)
        healthy = saturate_outputs(
            InterpretedEngine().run(
                case.network, [witness], params=case.params or None
            )[0]
        )
        broken = saturate_outputs(
            InterpretedEngine().run(mutant, [witness], params=case.params or None)[0]
        )
        if healthy != broken:
            return emit_mutant_test(
                case.network,
                mutant,
                witness,
                params=case.params,
                title=f"{fault.name.replace('-', '_')}_seed{case.seed}",
                provenance=f"{fault.name} on {case.name}",
            )
    # Volley- and plan-level faults: pin cross-backend agreement of the
    # healthy network on the witness (the property the fault violated).
    return emit_regression_test(
        case.network,
        witness,
        params=case.params,
        title=f"{fault.name.replace('-', '_')}_seed{case.seed}",
        provenance=f"{fault.name} on {case.name}",
    )
