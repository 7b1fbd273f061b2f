"""The paper's primary contribution: SODA, SODAerr and the message-disperse
primitives they are built on.

Sub-packages / modules
----------------------
* :mod:`repro.core.tags` — version tags ``(z, writer_id)`` with the total
  order of Section IV.
* :mod:`repro.core.messages` — every protocol message, annotated with its
  normalized payload size for cost accounting.
* :mod:`repro.core.message_disperse` — the MD-VALUE and MD-META primitives
  of Section III (sender helpers + the server-side engine).
* :mod:`repro.core.soda` — the SODA writer, reader and server automata of
  Section IV and the :class:`~repro.core.soda.cluster.SodaCluster` façade.
* :mod:`repro.core.sodaerr` — the SODAerr variant of Section VI that also
  tolerates silently corrupted local disk reads.
"""
