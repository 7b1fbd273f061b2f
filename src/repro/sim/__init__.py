"""Discrete-event simulation of an asynchronous message-passing system.

This package is the substrate on which every protocol in the reproduction
runs.  It implements exactly the system model of Section II of the SODA
paper:

* a finite set of named processes (readers, writers, servers), each with a
  unique, totally ordered identifier;
* reliable point-to-point channels between every pair of processes —
  messages are never lost or corrupted in transit, but may be delayed
  arbitrarily and delivered out of order (non-FIFO by default);
* crash failures: a crashed process stops sending and processing messages;
  messages already in the channel towards a non-faulty destination are
  still delivered;
* silent local disk read errors (used only by SODAerr): a server may fetch
  a corrupted coded element from its local storage without noticing.

Asynchrony is modelled by drawing per-message delays from a configurable
:class:`~repro.sim.network.DelayModel`; all randomness flows from one seeded
generator so executions are reproducible.  The latency analysis of Section
V-C is reproduced with the :class:`~repro.sim.network.FixedDelay` model,
which delivers every message after exactly ``delta`` time units.
"""
