#!/usr/bin/env python
"""Cost comparison: regenerate the paper's Table I from live executions.

Runs the same concurrent workload against ABD, CASGC and SODA at the
maximum tolerable failure level f = n/2 - 1 and prints worst-case write
cost, read cost and total storage cost, measured and predicted — the
reproduction of Table I.

Run with:  python examples/cost_comparison.py [n]
"""

import sys

from repro.analysis.tables import format_table, generate_table1
from repro.analysis.experiments import run_sweep


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    if n % 2:
        raise SystemExit("Table I assumes an even number of servers")

    print(f"Reproducing Table I for n={n}, f=f_max={n // 2 - 1} (CASGC delta=2)\n")
    entries = generate_table1(n=n, delta=2, seed=7)
    print(format_table(entries))

    print("\nStorage/communication trade-off (Section I-B): CASGC provisions")
    print("storage for delta concurrent writes up front; SODA keeps storage flat")
    print("and pays only in read communication when concurrency actually occurs.\n")
    for p in run_sweep("tradeoff", seed=7):
        print(
            f"  delta={p.delta}: CASGC storage={p.casgc_storage:5.2f} read={p.casgc_read_cost:5.2f}   "
            f"SODA storage={p.soda_storage:5.2f} read={p.soda_read_cost:5.2f}"
        )


if __name__ == "__main__":
    main()
