"""Baseline atomic-register protocols the paper compares SODA against.

* :mod:`repro.baselines.abd` — the replication-based ABD algorithm of
  Attiya, Bar-Noy and Dolev [2] in its multi-writer multi-reader form.
  Worst-case write, read and storage costs are all ``n`` (Table I, row 1).
* :mod:`repro.baselines.cas` — the Coded Atomic Storage (CAS) algorithm of
  Cadambe et al. [1]: an ``[n, k]`` MDS code with ``k = n - 2f`` and
  quorums of size ``(n + k) / 2``; communication cost ``n / (n - 2f)`` per
  operation but unbounded storage (every version is kept).
* :mod:`repro.baselines.casgc` — CAS with garbage collection: each server
  keeps coded elements for at most ``delta + 1`` versions, giving the
  ``(n / (n - 2f)) * (delta + 1)`` storage cost of Table I, row 2.
* :mod:`repro.baselines.registry` — a name -> cluster-factory registry used
  by the comparison experiments; it imports a protocol's cluster module on
  the first :func:`~repro.baselines.registry.make_cluster` of it.
"""
