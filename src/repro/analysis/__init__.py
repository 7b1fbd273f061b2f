"""Analysis layer: closed-form costs, Table I, the paper sweeps, the epoch engine.

* :mod:`repro.analysis.theoretical` — the paper's closed-form cost
  expressions (Theorems 5.3-5.7, 6.3 and Table I).
* :mod:`repro.analysis.tables` — regenerates Table I by *measuring* the
  costs of ABD, CASGC and SODA on simulated executions and printing them
  next to the paper's predictions.
* :mod:`repro.analysis.experiments` — the paper's ten sweeps (storage,
  write cost, read cost vs concurrency, latency, SODAerr, atomicity, the
  trade-off ablation, three scenarios): one point function each, rows of
  one table (:data:`SWEEPS`) behind :func:`run_sweep`, which runs a row's
  points one after another on per-point derived seeds.
* :mod:`repro.analysis.pool` — the epoch engine's spawn pool
  (completion-order fan-out, the order-restoring cursor, the
  daemonic-worker guard).
* :mod:`repro.analysis.engine` — the epoch engine behind ``experiment
  longrun | openloop | adversary`` and ``--fleet``: one long real-cluster
  execution cut into seeded epochs (and, in fleet mode, per-object
  cells) over the pool, checked online under bounded memory, folded in
  grid order into one :class:`Report` whose JSON/CSV artefacts are
  byte-identical under any scheduling.  Its seven artefact kinds are rows
  of one table (:data:`KINDS`) behind :func:`run_experiment`.
"""
