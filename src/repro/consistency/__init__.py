"""Operation histories and atomicity (linearizability) checking.

The paper proves that SODA and SODAerr implement an *atomic* multi-writer
multi-reader register (Theorems 5.2 and 6.2) by exhibiting a partial order
on operations that satisfies the three properties of Lemma 2.1.  This
package provides the machinery to *check* those guarantees on simulated
executions:

* :mod:`repro.consistency.stream` defines the operation event stream: the
  :class:`OperationRecord`, the narrow :class:`HistorySink` recording
  interface every protocol client writes through, and the bounded-memory
  :class:`StreamingRecorder` for long runs;
* :mod:`repro.consistency.history` is the in-memory sink (the full
  :class:`History` log) consumed by the offline checkers and analyses;
* :mod:`repro.consistency.lemma_check` verifies the Lemma 2.1 properties
  directly from the recorded tags (the proof technique used in the paper),
  as a stream observer with O(1) work per operation; the offline check is
  a replay of a recorded history through it;
* :mod:`repro.consistency.wgl` is an independent Wing–Gong–Lowe style
  linearizability checker for read/write registers that only looks at
  invocation/response times and values — it knows nothing about tags, so it
  cross-validates the protocol and the tag-based argument;
* :mod:`repro.consistency.incremental` checks the same register property
  *online* as operations retire off the stream, in O(ops · frontier) time
  and bounded memory — the scale-out path for million-operation histories.
"""
