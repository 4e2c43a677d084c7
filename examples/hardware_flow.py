"""The full hardware flow: specify → synthesize → optimize → export.

The developer journey the paper's §V enables, end to end:

1. specify a bounded s-t function as a normalized table,
2. minimize the table and synthesize the minterm network (Theorem 1),
3. optimize the network (CSE, inc fusion, lattice identities),
4. bound its timing with static analysis,
5. compile to a GRL netlist and verify on the cycle-accurate simulator,
6. export synthesizable structural Verilog and a JSON netlist.

Run:  python examples/hardware_flow.py [output-dir]
"""

import sys
import tempfile
from pathlib import Path

from repro.core import INF, NormalizedTable, minimize, synthesize
from repro.core.function import enumerate_domain
from repro.ir import optimize_program
from repro.network import (
    default_input_window,
    evaluate,
    makespan_bound,
    save,
    structure,
)
from repro.racelogic import GRLExecutor, compile_network, save_verilog


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="repro-hw-")
    )
    out_dir.mkdir(parents=True, exist_ok=True)

    print("=== 1. Specification: a normalized function table ===")
    table = NormalizedTable(
        {
            (0, 1, 2): 3,
            (1, 0, INF): 2,
            (2, 2, 0): 2,
            (0, INF, 1): 4,
            (0, INF, 2): 4,  # redundant next to a wider row below
            (0, INF, INF): 4,
        }
    )
    print(table.pretty())

    print("\n=== 2. Minimize + synthesize (Theorem 1) ===")
    minimal = minimize(table)
    print(f"minimized: {len(table)} -> {len(minimal)} rows")
    net = synthesize(minimal)
    print(f"synthesized: {structure(net)}")

    print("\n=== 3. Optimize ===")
    before = net.size
    net = optimize_program(net)[0]
    print(f"optimized: {before} -> {net.size} blocks")

    print("\n=== 4. Static timing ===")
    bound = makespan_bound(net, default_input_window(net, 7))
    print(f"with inputs in [0, 7], no spike can occur after t = {bound}")

    print("\n=== 5. Compile to GRL and verify ===")
    circuit = compile_network(net)
    print(f"netlist: {circuit}")
    executor = GRLExecutor(net)
    mismatches = sum(
        1
        for vec in enumerate_domain(3, 4)
        if executor.outputs(dict(zip(net.input_names, vec)))
        != evaluate(net, dict(zip(net.input_names, vec)))
    )
    print(f"cycle-accurate vs denotational over window 4: "
          f"{mismatches} mismatches")

    print("\n=== 6. Export ===")
    verilog_path = out_dir / "design.v"
    network_path = out_dir / "network.json"
    save_verilog(circuit, verilog_path, module_name="st_function")
    save(net, network_path)
    print(f"wrote {verilog_path} ({verilog_path.stat().st_size} bytes)")
    print(f"wrote {network_path} ({network_path.stat().st_size} bytes)")
    print("\nfirst lines of the Verilog:")
    for line in verilog_path.read_text().splitlines()[:10]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
