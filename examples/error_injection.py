#!/usr/bin/env python
"""SODAerr demo: reading correctly through silent disk corruption.

Builds a SODAerr deployment with two permanently flaky disks (every local
read they serve is corrupted) plus two crashed servers, and shows that reads
still return the correct value while the storage cost follows Theorem 6.3's
n / (n - f - 2e).

Run with:  python examples/error_injection.py
"""

from repro.core.sodaerr.cluster import SodaErrCluster


def main() -> None:
    n, f, e = 10, 2, 2
    cluster = SodaErrCluster(
        n=n,
        f=f,
        e=e,
        error_probability=1.0,          # flaky disks corrupt every local read
        error_prone_servers=[1, 4],     # exactly e = 2 flaky servers
        seed=7,
    )
    print(f"SODAerr: n={n}, f={f}, e={e}  ->  [n, k] = [{n}, {cluster.k}] MDS code")
    print(f"flaky disks: s1, s4 (corrupt 100% of their local reads)")

    cluster.write(b"data that must survive corrupt disks")

    # Knock out f servers as well: the worst case the algorithm is designed for.
    cluster.crash_server(0, at_time=cluster.sim.now)
    cluster.crash_server(9, at_time=cluster.sim.now)
    print("crashed servers: s0, s9")

    for i in range(3):
        rec = cluster.read()
        print(f"read #{i + 1}: {rec.value!r}  "
              f"(cost={cluster.operation_cost(rec.op_id):.2f} units, "
              f"errors injected so far={cluster.disk_error_model.errors_injected})")
        assert rec.value == b"data that must survive corrupt disks"

    cluster.run()
    print(f"\ntotal storage cost: {cluster.storage_peak():.3f} "
          f"(Theorem 6.3 predicts n/(n-f-2e) = {cluster.theoretical_storage_cost():.3f})")
    print("every read decoded correctly despite two corrupted elements per read")


if __name__ == "__main__":
    main()
