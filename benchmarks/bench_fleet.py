"""Fleet-mode throughput rows: partitioned namespace over OS processes.

The ``multiobj_*`` rows in ``BENCH_sim.json`` run an 8-register namespace
through **one** simulation in **one** process, so they measure what a
single core sustains.  Fleet mode (the ``fleet-*`` kinds of
:mod:`repro.analysis.engine`) splits
the same namespace into partitions, each simulated in its own spawned
process with per-object derived seeds — the artefacts are byte-identical
for any partition count, so the only thing that changes is where the CPU
time is spent.  These rows measure that:

* ``fleet_ops_per_s`` — completed operations divided by the report's
  ``cpu_s``, the sum over epochs of the *largest* per-cell CPU time (the critical
  path when every partition has its own core).  This is the sustained
  all-core capacity metric the fleet exists for, and it is
  host-core-count independent: a 1-core CI runner measures per-cell CPU
  seconds just as faithfully as a 16-core workstation.  Gated loosely
  (host single-core speed still scales it).
* ``fleet_events_per_s`` — simulation events over the same critical
  path, the fleet analogue of the headline ``events_per_s`` row.  Gated
  loosely.
* ``fleet_max_resident`` — the per-object bounded-recorder residency
  ceiling, max over every cell.  Deterministic (window + clients per
  object), so it gates the bounded-memory property exactly like
  ``multiobj_max_resident`` does for the monolithic run.
* ``fleet_wall_ops_per_s`` — completed / wall seconds *on this host* (cells
  time-slice one core here).  Trajectory record, not a gate: it measures
  the committer's core count as much as the code.

The workload mirrors the ``multiobj_*`` rows (8 objects, n=5, f=2, same
seed and budget) with one deliberate difference: the key distribution is
**uniform**, not ``zipf:1.1``.  Fleet speedup is bounded by the hottest
partition's share of the work (an Amdahl-style cap): under ``zipf:1.1``
over 8 objects the hottest key alone carries ~40% of the operations, so
4 partitions can never beat ~2.5x however good the engine is — the gate
would be measuring the skew profile, not the fleet path.  The uniform
row keeps partitions balanced (4x cap) so the ratio
``fleet_ops_per_s / multiobj_ops_per_s`` stays sensitive to regressions
in the partitioned execution itself; the skew cap is documented in
docs/perf.md and demonstrated by the committed scaling artefact.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.engine import run_experiment

#: Partitions for the bench row — 4 cells per epoch, matching the
#: acceptance target (``--fleet 4`` beating the single-process namespace
#: row by >= 3x on capacity).
_FLEET = 4


def bench_fleet(*, quick: bool = False, seed: int = 7) -> Dict[str, float]:
    """The fleet rows folded into BENCH_sim.json by run_benchmarks.py."""
    ops = 1_000 if quick else 8_000
    report = run_experiment(
        "fleet-longrun",
        "SODA",
        ops=ops,
        epoch_ops=max(500, ops // 4),
        fleet=_FLEET,
        jobs=1,
        objects=8,
        key_dist="uniform",
        n=5,  # match the other sim rows' cluster shape
        f=2,
        seed=seed,
    )
    if not report.ok:  # pragma: no cover - would be a checker/protocol bug
        raise RuntimeError(
            f"fleet verdict reported violations: {report.verdict.violations()}"
        )
    return {
        "fleet_ops_per_s": report.ops_per_cpu_s,
        "fleet_events_per_s": report.events_per_cpu_s,
        "fleet_max_resident": float(report.stream_max_resident),
        "fleet_wall_ops_per_s": report.ops_per_s,
    }


if __name__ == "__main__":
    for metric, value in bench_fleet().items():
        print(f"{metric} = {value:,.2f}")
