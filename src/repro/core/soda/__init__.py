"""The SODA algorithm (Section IV of the paper).

* :class:`~repro.core.soda.server.SodaServer` — the server automaton of Fig. 5.
* :class:`~repro.core.soda.writer.SodaWriter` — the writer protocol of Fig. 3.
* :class:`~repro.core.soda.reader.SodaReader` — the reader protocol of Fig. 4.
* :class:`~repro.core.soda.cluster.SodaCluster` — a façade that wires the
  automata to the simulation substrate, records the operation history and
  exposes cost/latency metrics.
"""
