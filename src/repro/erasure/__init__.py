"""Erasure-coding substrate for the SODA reproduction.

The SODA and SODAerr algorithms (Konwar et al., IPDPS 2016) rely on an
``[n, k]`` Maximum Distance Separable (MDS) code: a value of one unit is
split into ``k`` elements, expanded into ``n`` coded elements of size
``1/k`` each, such that

* any ``k`` coded elements suffice to reconstruct the value (erasure-only
  decoding, used by SODA), and
* any ``k + 2e`` coded elements of which at most ``e`` are silently
  corrupted suffice to reconstruct the value (errors-and-erasures decoding,
  used by SODAerr).

This package implements everything needed from scratch:

* :mod:`repro.erasure.gf` — arithmetic in GF(2^8), with two
  byte-identical bulk-kernel backends: compiled C kernels (``native``, the
  default wherever they load or build; one of the compiled modules of
  :mod:`repro.native`, whose build cache turns every way of failing to
  provide them into a named reason) and full-table numpy gathers
  (``numpy``, the portable fallback and the tests' reference); a field
  instance may name its backend, and the process-wide default is whichever
  loads.
* :mod:`repro.erasure.poly` — the polynomials the RS generator is built from.
* :mod:`repro.erasure.matrix` — matrices over GF(2^8) (inversion).
* :mod:`repro.erasure.rs` — a classical Reed–Solomon codec with systematic
  encoding, erasure decoding from any ``k`` symbols and Berlekamp–Massey /
  Forney errors-and-erasures decoding.
* :mod:`repro.erasure.mds` — the :class:`~repro.erasure.mds.MDSCode`
  interface shared by all protocol implementations, including the batched
  ``encode_many`` / ``decode_many`` pipeline.
* :mod:`repro.erasure.linear` — shared matrix-code machinery (parity-only
  systematic encoding, LRU-cached erasure decoding, batched variants).
* :mod:`repro.erasure.batch` — the codec front every protocol process
  calls inline: the memoizing/batch-warming
  :class:`~repro.erasure.batch.CachedEncoder` shared by a cluster's
  writers and servers and the :class:`~repro.erasure.batch.CachedDecoder`
  shared by its readers (erasure-only, or errors-and-erasures with
  ``max_errors=e`` for SODAerr).
* :mod:`repro.erasure.replication` — the trivial ``[n, 1]`` replication
  "code" used by the ABD baseline.
"""
