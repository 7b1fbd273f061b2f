"""C-source mutants of the compiled modules of ``repro.native.NATIVE``.

No subclass reaches C: the checker core binds only for the exact checker
class, and a subclassed message-disperse engine sends the run loop down its
Python path.  So a mutant here is one text substitution on a registered
module's C source: ``old`` (which must occur exactly once) becomes ``new``.
Its row of :data:`mutants.MUTANTS` installs it as ``native:<label>``:
``tests/test_kill_matrix.py`` builds the mutated source with
``CompiledModule`` into a temporary cache and patches the registered
module's ``load`` to return it for the duration of the check.  A mutant
with ``nightly = True`` runs only when ``FUZZ_FACTOR`` is above 1, as in
the nightly fuzz workflow: each build costs about a second, and tier-1
builds three.  Nothing under ``src/`` knows about them.
"""


class FlippedDirtyACore:
    """The checker core raises ``_dirty_a`` when a parked a-growth is
    *lower* than it, not higher, so the overlay's bound lags the
    Python checker's.  The per-event differential of
    ``tests/consistency/test_checker_core.py`` kills it."""

    old = "if (a > bound && store("
    new = "if (a < bound && store("


class UnnamedFirstReadCore:
    """The checker core moves a cluster's first read's invocation time but
    does not store its op id in the first-read name column, so
    ``_first_read_id`` keeps naming an earlier read (or none) and a
    violation found later names the wrong witness.  The per-event
    differential of ``tests/consistency/test_checker_core.py`` kills it."""

    nightly = True
    old = "TRY(name_store(COL(FIRST_READ_ID), i, text, size));"
    new = ""


class HalfKeyCore:
    """The key table's probe compares only the first 8 of a key's 16 bytes,
    the 8 it hashes on, so a digest sharing them with a held one finds that
    one's cid.  ``tests/consistency/test_checker_core.py``'s key table
    against a dict, on crafted keys that share their first 8 bytes, kills
    it."""

    nightly = True
    old = "], key, 16))"
    new = "], key, 8))"


class EarlyCountdownLoop:
    """The run loop drops a message-disperse send's pending entry when two
    copies are still due, not one; the last copy then reaches the Python
    handler as if it were a first one.  ``tests/sim/test_run_loop.py``
    kills it by comparing the run with the Python loop's."""

    old = "if (!overflow && copies == 1) {"
    new = "if (!overflow && copies == 2) {"


class ShiftedHighLaneKernels:
    """The SSSE3 row product samples its high-nibble lane table at
    ``x << 3`` instead of ``x << 4``, so every 16-byte block of a row of at
    least 16 bytes is multiplied wrong (shorter rows take the scalar tail
    and stay right).  The committed 64 KiB vector of
    ``tests/erasure/test_vectors.py`` kills it.  Hosts other than x86-64
    compile the scalar path alone, so the row is skipped there."""

    machines = ("x86_64", "AMD64")
    old = "hi_tab[x] = row[x << 4];"
    new = "hi_tab[x] = row[x << 3];"


class OffByOneScalarKernels:
    """The scalar row product looks a byte up at ``src[i] ^ 1`` in its
    coefficient's table row, so every byte of a row shorter than 16 (and of
    every longer row's tail, and every row on a host without SSSE3) is
    multiplied wrong.  The committed short-row vectors of
    ``tests/erasure/test_vectors.py`` kill it."""

    nightly = True
    old = "dst[i] ^= row[src[i]];"
    new = "dst[i] ^= row[src[i] ^ 1];"
