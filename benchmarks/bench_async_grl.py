"""§V.B — clocked vs delay-based (asynchronous) GRL.

The paper proposes clocked shift registers for delays but notes the more
direct alternative of physical delays, which "would have to account for
individual gate latencies".  This bench makes both points quantitative:

* with ideal (zero-latency) gates the asynchronous circuit reproduces the
  algebra exactly, with no flip-flops and no clock,
* with nonzero gate latencies, outputs skew in proportion to logic depth
  — the reason the clocked formulation quantizes time to cycles covering
  all gate delays.
"""

import random

from repro.core.function import enumerate_domain
from repro.core.synthesis import synthesize
from repro.core.table import FIG7_TABLE, NormalizedTable
from repro.core.value import INF, Infinity
from repro.network.simulator import evaluate
from repro.racelogic.asynchronous import compile_async, run_async
from repro.racelogic.compile import GRLExecutor


def report() -> str:
    lines = ["§V.B — clocked vs asynchronous GRL"]
    net = synthesize(FIG7_TABLE)
    clocked = GRLExecutor(net)
    ideal = compile_async(net, gate_delay=0)

    mismatches = 0
    for vec in enumerate_domain(3, 4):
        bound = dict(zip(net.input_names, vec))
        want = evaluate(net, bound)
        if run_async(ideal, bound).outputs != want:
            mismatches += 1
    lines.append(
        f"\nideal async (no clock, no flip-flops): {mismatches} mismatches "
        f"vs the algebra over window 4"
    )
    lines.append(
        f"hardware: clocked uses {clocked.circuit.flipflop_count} DFFs; "
        f"async uses {ideal.counts_by_kind().get('delay', 0)} delay "
        f"elements totaling {ideal.total_designed_delay} units"
    )

    lines.append(f"\ngate-latency sensitivity (Fig. 7 network, window-3 inputs):")
    lines.append(f"{'gate delay':>11} {'exact outputs':>14} {'mean skew':>10}")
    vectors = [
        vec for vec in enumerate_domain(3, 3)
        if any(not isinstance(v, Infinity) for v in vec)
    ]
    for gate_delay in (0, 1, 2):
        skewed = compile_async(net, gate_delay=gate_delay)
        exact = 0
        skews = []
        for vec in vectors:
            bound = dict(zip(net.input_names, vec))
            want = evaluate(net, bound)["y"]
            got = run_async(skewed, bound).outputs["y"]
            if got == want:
                exact += 1
            if not isinstance(want, Infinity) and not isinstance(got, Infinity):
                skews.append(abs(int(got) - int(want)))
        mean_skew = sum(skews) / len(skews) if skews else 0.0
        lines.append(
            f"{gate_delay:>11} {exact:>8}/{len(vectors):<5} {mean_skew:>10.2f}"
        )
    lines.append(
        "\nshape: exact at zero latency; accuracy degrades and timing "
        "skews grow with gate latency — the paper's stated reason the "
        "clocked form quantizes unit time to cover all gate delays."
    )
    return "\n".join(lines)


def bench_async_simulation(benchmark):
    net = synthesize(FIG7_TABLE)
    circuit = compile_async(net)
    bound = dict(zip(net.input_names, (0, 1, 2)))
    want = evaluate(net, bound)
    assert benchmark(lambda: run_async(circuit, bound).outputs) == want


def bench_clocked_vs_async_speed(benchmark):
    # Both simulators are event-driven: the async one visits gate-delay
    # event times, the clocked one only the cycles in which a wire
    # switches. Time the async side (the clocked side is timed in
    # bench_fig16_grl).
    table = NormalizedTable.random(3, window=3, n_rows=10, rng=random.Random(3))
    net = synthesize(table)
    circuit = compile_async(net)
    bound = dict(zip(net.input_names, (0, 2, 1)))
    result = benchmark(run_async, circuit, bound)
    assert result.outputs == evaluate(net, bound)


if __name__ == "__main__":
    print(report())
