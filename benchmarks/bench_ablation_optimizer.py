"""Ablation — network optimization and table minimization.

DESIGN.md calls out the cost of the minterm canonical form (linear in
rows × arity) as a design choice worth ablating.  This bench measures
the two reducers the library provides on top of raw synthesis:

* structural optimization (CSE, inc fusion, lattice identities) of the
  synthesized network,
* semantic minimization of the table before synthesis,

reporting block counts and compiled-circuit transition counts for each
pipeline, with exact-equivalence verification throughout.
"""

import random

from repro.core.function import enumerate_domain
from repro.core.minimize import minimize
from repro.core.synthesis import synthesize
from repro.core.table import NormalizedTable
from repro.core.value import INF
from repro.ir import optimize_program
from repro.racelogic.energy import measure_energy


def _optimized(network):
    """The IR pass pipeline's output, raised back to a Network."""
    return optimize_program(network)[0].to_network()


def _pipeline_sizes(table):
    raw = synthesize(table)
    optimized = _optimized(raw)
    minimal_table = minimize(table)
    minimal = synthesize(minimal_table)
    both = _optimized(minimal)
    return raw, optimized, minimal, both, minimal_table


def _verify(table, nets, window):
    reference = table.as_causal_function()
    for net in nets:
        f = net.as_function()
        for vec in enumerate_domain(table.arity, window):
            if f(*vec) != reference(*vec):
                return False
    return True


def report() -> str:
    lines = ["Ablation — synthesis reducers (blocks / transitions per run)"]
    lines.append(
        f"\n{'rows':>5} {'raw':>6} {'optimized':>10} {'min-table':>10} "
        f"{'both':>6} {'exact?':>7}"
    )
    rng = random.Random(0)
    for n_rows in (6, 12, 24):
        table = NormalizedTable.random(3, window=3, n_rows=n_rows, rng=rng)
        raw, optimized, minimal, both, minimal_table = _pipeline_sizes(table)
        ok = _verify(
            table, [raw, optimized, minimal, both], table.max_entry() + 1
        )
        lines.append(
            f"{len(table):>5} {raw.size:>6} {optimized.size:>10} "
            f"{minimal.size:>10} {both.size:>6} {'yes' if ok else 'NO':>7}"
        )

    table = NormalizedTable.random(3, window=3, n_rows=12, rng=random.Random(7))
    raw, _, _, both, _ = _pipeline_sizes(table)
    inputs = [
        {
            name: (INF if random.Random(i).random() < 0.3 else random.Random(i + 99).randint(0, 3))
            for name in raw.input_names
        }
        for i in range(10)
    ]
    raw_energy = measure_energy(raw, inputs)
    both_energy = measure_energy(both, inputs)
    lines.append(
        f"\ncompiled-circuit transitions/run: raw "
        f"{raw_energy.transitions_per_run:.1f} -> reduced "
        f"{both_energy.transitions_per_run:.1f}"
    )
    lines.append(
        "\nshape: both reducers shrink networks with exactly preserved "
        "semantics; the savings compound and carry through to switching "
        "energy in the compiled circuit."
    )
    return "\n".join(lines)


def bench_optimize_synthesized(benchmark):
    table = NormalizedTable.random(3, window=3, n_rows=16, rng=random.Random(1))
    net = synthesize(table)
    optimized = benchmark(_optimized, net)
    assert optimized.size <= net.size


def bench_minimize_table(benchmark):
    table = NormalizedTable.random(3, window=3, n_rows=24, rng=random.Random(2))
    minimal = benchmark(minimize, table)
    assert len(minimal) <= len(table)


if __name__ == "__main__":
    print(report())
