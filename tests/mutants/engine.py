"""Mutants of the long-run engine's epoch fold.

``GaplessRebase`` — ``engine.rebase_verdict`` without the inter-epoch gap:
it places each epoch's verdict one ``EPOCH_GAP`` earlier than the offset
the fold gave it, so the merged check and the kept replay history (which
``engine._replay`` still places at the offset) no longer share one global
timeline.  No op of an epoch is invoked within its last ``EPOCH_GAP``
(operations take longer than that), so the merged verdict alone stays
``ok``; ``tests/analysis/test_longrun.py`` compares the two placements.

The rows of :data:`mutants.MUTANTS` name the kill checks.
"""

from repro.analysis.engine import EPOCH_GAP, rebase_verdict


class GaplessRebase:
    """Stands where the function ``rebase_verdict`` does (a class, so the
    registry finds it) and returns its verdict ``EPOCH_GAP`` early."""

    def __new__(cls, verdict, epoch_index, offset):
        return rebase_verdict(verdict, epoch_index, offset - EPOCH_GAP)
