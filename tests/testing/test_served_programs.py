"""Four-engine conformance on the programs serving workers run.

Each served model is diffed on its served program (sorters grouped,
then optimized, as ``run_backends(..., optimize=True)`` builds it) over
the adversarial volleys, near-sentinel rows included.  No engine may
skip the program and no volley may split them.
"""

import random

import pytest

from repro.neuron.column import compile_column
from repro.testing.conformance import find_disagreements
from repro.testing.generators import adversarial_volleys
from repro.testing.oracles import run_backends
from repro.train import classification_scenario
from repro.runtime.engines import ENGINES

from ..ir.test_passes import _e2e_column


def _training_seed():
    """The model a ``serve --train`` server bootstraps (untrained)."""
    scenario = classification_scenario(seed=0)
    return compile_column(scenario.column, name=scenario.name)


def _assert_four_engines_agree(network):
    volleys = adversarial_volleys(len(network.input_names), rng=random.Random(0))
    run = run_backends(network, volleys, optimize=True)
    assert run.skipped == {}
    assert list(run.results) == [engine.name for engine in ENGINES]
    assert find_disagreements(run) == []


@pytest.mark.parametrize(
    "build",
    [lambda: _e2e_column(10), _training_seed],
    ids=["column-10in", "training-seed"],
)
def test_served_program_runs_alike_on_every_engine(build):
    _assert_four_engines_agree(build())


@pytest.mark.conformance
def test_wide_served_column_runs_alike_on_every_engine():
    _assert_four_engines_agree(_e2e_column(80))
