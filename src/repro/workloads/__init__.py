"""Workload generation for the SODA reproduction experiments.

The paper's evaluation is analytical, so there is no published trace to
replay; instead the experiments drive the protocols with synthetic
workloads that exercise the quantities the theorems talk about:

* :mod:`repro.workloads.scenarios` — the one module that schedules
  operations on a live cluster, for the paper sweeps and Table I:
  randomized mixes of concurrent reads and writes (with optional crash
  schedules), and scenarios that pin down a single variable — a read
  overlapping exactly ``delta_w`` writes, purely sequential (uncontended)
  operation and skewed read/write mixes — all returning
  :class:`~repro.workloads.scenarios.ScenarioResult`;
* :mod:`repro.workloads.generator` — streamed synthetic histories for
  checker runs with no cluster, and the unique write values every workload
  writes;
* :mod:`repro.workloads.arrivals` — seeded open-loop arrival processes
  (Poisson / diurnal / burst / trace replay) for the open-loop policy of
  the traffic driver, :class:`repro.runtime.driver.OpenLoop`;
* :mod:`repro.workloads.faults` — the unified :class:`FaultPlan`
  composite (crash bursts, slow disks, delay adversary, withholding
  servers, partition/heal), each leg a pure function of its derived rng.

The spec strings behind ``--arrival``, ``--key-dist`` and ``--faults`` have
one grammar, :mod:`repro.workloads.spec`, read from one family table each:
:data:`~repro.workloads.arrivals.ARRIVALS`,
:data:`~repro.workloads.keyed.KEY_DISTS` and
:data:`~repro.workloads.faults.FAULT_LEGS`.
"""
