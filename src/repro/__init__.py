"""Reproduction of "Storage-Optimized Data-Atomic Algorithms for Handling
Erasures and Errors in Distributed Storage Systems" (Konwar et al., IPDPS
2016).

The sub-packages, each imported from its defining module (no package
``__init__`` loads a submodule, so a launch imports only what it runs):

* :mod:`repro.core` — SODA, SODAerr and the message-disperse primitives.
* :mod:`repro.baselines` — ABD, CAS and CASGC, and the protocol registry.
* :mod:`repro.erasure` — the Reed-Solomon / MDS coding substrate.
* :mod:`repro.sim` — the discrete-event asynchronous-network simulator.
* :mod:`repro.consistency` — histories and linearizability checking.
* :mod:`repro.analysis` — closed-form costs, Table I, experiment runners.
"""

__version__ = "1.0.0"
