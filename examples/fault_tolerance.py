#!/usr/bin/env python
"""Fault-tolerance demo: concurrent clients racing server crashes.

Builds a 7-server SODA deployment (f = 3), runs two writers and two readers
concurrently while three servers crash at random times, then verifies the
execution:

* liveness — every operation by a non-crashed client completed;
* atomicity — the recorded history is linearizable, checked both with the
  black-box Wing-Gong-Lowe checker and the paper's Lemma 2.1 tag argument.

Run with:  python examples/fault_tolerance.py [seed]
"""

import sys

from repro.consistency.lemma_check import check_lemma_properties
from repro.consistency.wgl import check_linearizability
from repro.core.soda.cluster import SodaCluster
from repro.core.tags import TAG_ZERO
from repro.workloads.scenarios import WorkloadSpec, run_workload


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2024
    n, f = 7, 3
    cluster = SodaCluster(n=n, f=f, num_writers=2, num_readers=2, seed=seed)
    spec = WorkloadSpec(
        writes_per_writer=3,
        reads_per_reader=3,
        window=12.0,
        server_crashes=f,
        seed=seed + 1,
    )
    run_workload(cluster, spec)

    print(f"SODA n={n}, f={f}; workload seed={seed}")
    print(f"crash schedule: " + ", ".join(
        f"{e.pid}@t={e.time:.1f}" for e in cluster.failures.injected))
    print(f"operations invoked : {len(cluster.history)}")
    print(f"operations complete: {len(cluster.history.complete_operations())}")

    ops = cluster.history.operations()
    for op in ops:
        status = f"-> {op.value!r}" if op.kind == "read" else f"({op.value!r})"
        print(f"  {op.kind:5s} {op.op_id:<14s} [{op.invoked_at:5.2f}, "
              f"{op.responded_at:5.2f}] tag={op.tag} {status}")

    assert not cluster.history.incomplete_operations(), "liveness violated!"
    lin = check_linearizability(cluster.history, initial_value=b"")
    lemma = check_lemma_properties(cluster.history, initial_tag=TAG_ZERO, initial_value=b"")
    print(f"\nlinearizable (black-box WGL check) : {bool(lin)}")
    print(f"Lemma 2.1 violations (tag argument): {len(lemma)}")
    print(f"worst-case total storage cost      : {cluster.storage_peak():.3f} "
          f"(= n/(n-f) = {cluster.theoretical_storage_cost():.3f})")


if __name__ == "__main__":
    main()
