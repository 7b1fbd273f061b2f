"""Shared runtime glue between protocols and the simulation substrate.

:class:`~repro.runtime.cluster.RegisterCluster` is the façade every
protocol implementation (SODA, SODAerr, ABD, CAS, CASGC) exposes: it wires
servers and clients to a :class:`~repro.sim.simulation.Simulation`, records
the operation history and the cost/latency metrics, and offers both
blocking (``write`` / ``read``) and scheduled (``schedule_write`` /
``schedule_read``) operation APIs used by the examples, workloads and
benchmarks.

Long runs go through ``run_streamed`` (closed loop) and ``run_open_loop``
on a cluster or on a :class:`~repro.runtime.namespace.MultiRegisterCluster`
of many.  All four arm the one :class:`~repro.runtime.driver.Driver` per
register object, under its :class:`~repro.runtime.driver.ClosedLoop` or
:class:`~repro.runtime.driver.OpenLoop` arrival policy, with one
:class:`~repro.runtime.driver.RunStats` each; :mod:`repro.runtime.driver`
also holds the run loop, the fault-plan materialiser and the value source,
and :class:`~repro.runtime.config.RunConfig` the knobs.
"""
