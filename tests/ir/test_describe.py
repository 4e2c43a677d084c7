"""``python -m repro ir --describe --smoke`` is pinned byte for byte.

It prints the seed-0 smoke column's node count, depth and fingerprint,
the optimizer's step report and the level-grouped dump of the optimized
network; CI compares the same output with the same file.
"""

from pathlib import Path

from repro.__main__ import main

GOLDEN_DESCRIBE = Path(__file__).parent / "data" / "ir_describe_smoke.txt"


def test_ir_describe_smoke_matches_the_pinned_report(capsys):
    assert main(["ir", "--describe", "--smoke"]) == 0
    assert capsys.readouterr().out == GOLDEN_DESCRIBE.read_text(encoding="utf-8")
