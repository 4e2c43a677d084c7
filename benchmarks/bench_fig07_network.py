"""Fig. 7 (block diagram) — feedforward computing networks at scale.

Regenerates the encode → compute → decode pipeline and checks that the
four execution engines (interpreted, compiled-batch, event-driven and
the GRL circuit) agree as random primitive DAGs grow.  Run standalone,
it exits 1 when any row reads ``NO``.
"""

import random

from repro.core.properties import sample_vectors
from repro.core.value import INF
from repro.network.builder import NetworkBuilder
from repro.network.events import EventSimulator
from repro.network.simulator import evaluate
from repro.network.stats import structure
from repro.testing.conformance import diff_backends


def random_network(n_inputs, n_blocks, seed):
    rng = random.Random(seed)
    builder = NetworkBuilder(f"random{n_blocks}")
    pool = [builder.input(f"x{i}") for i in range(n_inputs)]
    for _ in range(n_blocks):
        op = rng.choice(["inc", "min", "max", "lt"])
        if op == "inc":
            pool.append(builder.inc(rng.choice(pool), rng.randint(1, 3)))
        elif op == "lt":
            pool.append(builder.lt(rng.choice(pool), rng.choice(pool)))
        else:
            srcs = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
            pool.append(getattr(builder, op)(*srcs))
    builder.output("y", pool[-1])
    return builder.build()


def random_inputs(net, rng):
    return {
        name: (INF if rng.random() < 0.2 else rng.randint(0, 7))
        for name in net.input_names
    }


def report() -> str:
    lines = ["Fig. 7 — feedforward s-t computing networks"]
    lines.append(f"\n{'blocks':>7} {'depth':>6} {'semantics agree?':>17}")
    for n_blocks in (10, 50, 200):
        net = random_network(4, n_blocks, seed=n_blocks)
        stats = structure(net)
        vectors = sample_vectors(
            len(net.input_names), count=60, max_time=3, rng=random.Random(0)
        )
        run, disagreements = diff_backends(net, vectors)
        agree = not disagreements and not run.skipped
        lines.append(
            f"{stats.n_blocks:>7} {stats.depth:>6} "
            f"{'yes' if agree else 'NO':>17}"
        )
    lines.append(
        "\nshape: denotational evaluation, local event-driven spikes, and "
        "compiled CMOS agree at every scale (Lemma 1 compositionality)."
    )
    return "\n".join(lines)


def bench_denotational_evaluation(benchmark):
    net = random_network(6, 300, seed=1)
    rng = random.Random(2)
    inputs = random_inputs(net, rng)
    result = benchmark(evaluate, net, inputs)
    assert "y" in result


def bench_event_driven_simulation(benchmark):
    net = random_network(6, 300, seed=1)
    sim = EventSimulator(net)
    rng = random.Random(2)
    inputs = random_inputs(net, rng)
    expected = evaluate(net, inputs)
    result = benchmark(sim.run, inputs)
    assert result.outputs == expected


if __name__ == "__main__":
    text = report()
    print(text)
    raise SystemExit(1 if "NO" in text.split() else 0)
