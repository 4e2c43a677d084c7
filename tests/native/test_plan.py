"""Repeat compiles of one network return the very same batch plan.

The plan lives on the network's lowered ``Program``; the rest of the
plan's unit tests are in ``tests/network/test_plan.py``.
"""

from repro.network.builder import NetworkBuilder
from repro.network.compile_plan import compile_plan


def diamond():
    b = NetworkBuilder("diamond")
    x, y = b.inputs("x", "y")
    fast = b.inc(b.min(x, y), 1)
    slow = b.inc(b.max(x, y), 3)
    b.output("first", b.lt(fast, slow))
    b.output("joined", b.min(fast, slow))
    return b.build()


class TestNativePlanCache:
    def test_identity_memoized(self):
        net = diamond()
        assert compile_plan(net) is compile_plan(net)
