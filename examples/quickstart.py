#!/usr/bin/env python
"""Quickstart: a 5-server SODA cluster tolerating 2 crashes.

Shows the minimal public-API workflow:

1. build a :class:`repro.core.soda.cluster.SodaCluster`,
2. write and read values (blocking convenience API),
3. crash ``f`` servers and keep operating,
4. inspect the costs the paper's theorems talk about.

Run with:  python examples/quickstart.py
"""

from repro.analysis import theoretical
from repro.core.soda.cluster import SodaCluster


def main() -> None:
    n, f = 5, 2
    cluster = SodaCluster(n=n, f=f, num_writers=1, num_readers=1, seed=42)
    print(f"SODA cluster: n={n} servers, tolerating f={f} crashes, "
          f"[n, k] = [{n}, {cluster.k}] MDS code")

    # --- write / read -------------------------------------------------
    write_rec = cluster.write(b"hello, erasure-coded atomic storage!")
    print(f"\nwrite completed: tag={write_rec.tag}, "
          f"latency={write_rec.duration:.2f} time units, "
          f"communication cost={cluster.operation_cost(write_rec.op_id):.2f} value units "
          f"(bound 5f^2 = {theoretical.soda_write_cost_bound(n, f):.0f})")

    read_rec = cluster.read()
    print(f"read returned   : {read_rec.value!r} (tag={read_rec.tag}), "
          f"cost={cluster.operation_cost(read_rec.op_id):.2f} value units "
          f"(uncontended bound n/(n-f) = {theoretical.soda_read_cost(n, f, 0):.2f})")

    # --- crash f servers and keep going --------------------------------
    cluster.crash_server(0, at_time=cluster.sim.now)
    cluster.crash_server(3, at_time=cluster.sim.now)
    cluster.write(b"still available with f servers down")
    survivor_read = cluster.read()
    print(f"\nafter crashing servers s0 and s3: read -> {survivor_read.value!r}")

    # --- the headline metric: total storage cost -----------------------
    cluster.run()
    print(f"\nworst-case total storage cost over the execution: "
          f"{cluster.storage_peak():.3f} value units "
          f"(Theorem 5.3 predicts n/(n-f) = {cluster.theoretical_storage_cost():.3f}; "
          f"plain replication would use {n:.1f})")


if __name__ == "__main__":
    main()
