"""Cost and latency accounting (Sections II-h and V-C of the paper).

* :class:`~repro.metrics.costs.CommunicationCostTracker` attributes the
  ``data_units`` of every message to the client operation on whose behalf it
  was sent, yielding per-operation read/write communication costs.
* :class:`~repro.metrics.costs.StorageTracker` maintains the running total
  of coded data stored across all servers and its maximum over the
  execution (the paper's *worst-case total storage cost*).
* :class:`~repro.metrics.latency.LatencyHistogram` summarises the
  latencies of the open-loop engine's streamed runs (p50/p99/p999, SLO
  attainment); the ``5 delta`` / ``6 delta`` bounds of Section V-C are
  checked against the history's own operation durations.
"""
