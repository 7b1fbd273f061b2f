"""The SODAerr algorithm (Section VI of the paper).

SODAerr extends SODA to tolerate, in addition to ``f`` server crashes, up
to ``e`` *erroneous* coded elements per read: a server may read a silently
corrupted coded element from its local disk and forward it to the reader
without noticing.  The changes relative to SODA are exactly the ones listed
in Fig. 6:

* the MDS code dimension becomes ``k = n - f - 2e`` (so the total storage
  cost is ``n / (n - f - 2e)``, Theorem 6.3);
* a reader must accumulate ``k + 2e`` coded elements of one tag before
  decoding, and decodes with the errors-and-erasures decoder ``Phi^-1_err``;
* a server unregisters a reader only once ``k + 2e`` distinct coded
  elements of one tag are known to have been sent to it.

:class:`~repro.core.sodaerr.cluster.SodaErrCluster` and
:class:`~repro.core.sodaerr.reader.SodaErrReader` carry those changes.
"""
