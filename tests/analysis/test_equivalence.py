"""Cross-engine equivalence checks refuse a network with unbound parameters.

The agreement cases themselves run through ``run_backends`` in
``tests/testing/test_oracles.py``.
"""

import pytest

from repro.network.builder import NetworkBuilder
from repro.network.graph import NetworkError
from repro.testing.oracles import run_backends


class TestCheckNetwork:
    def test_params_must_be_bound(self):
        b = NetworkBuilder()
        x = b.input("x")
        mu = b.param("mu")
        b.output("y", b.gate(x, mu))
        with pytest.raises(NetworkError, match=r"unbound params: \['mu'\]"):
            run_backends(b.build(), [(0,)])
