"""Mutants of the long-run engine's epoch fold.

``GaplessRebase`` — ``engine.rebase_verdict`` without the inter-epoch gap:
it places each epoch's verdict one ``EPOCH_GAP`` earlier than the offset
the fold gave it, so the merged check and the kept replay history (which
``engine._replay`` still places at the offset) no longer share one global
timeline.  No op of an epoch is invoked within its last ``EPOCH_GAP``
(operations take longer than that), so the merged verdict alone stays
``ok``; ``tests/analysis/test_longrun.py`` compares the two placements.

``LastCellDroppingEpochs`` — ``engine.epoch_cells`` losing each epoch's
last cell before the fold sees it.

The rows of :data:`mutants.MUTANTS` name the kill checks.
"""

from repro.analysis.engine import EPOCH_GAP, epoch_cells, rebase_verdict


class GaplessRebase:
    """Stands where the function ``rebase_verdict`` does (a class, so the
    registry finds it) and returns its verdict ``EPOCH_GAP`` early."""

    def __new__(cls, verdict, epoch_index, offset):
        return rebase_verdict(verdict, epoch_index, offset - EPOCH_GAP)


class LastCellDroppingEpochs:
    """Stands where the generator ``epoch_cells`` does and hands the fold
    each epoch without its last cell (an epoch of one cell is kept whole,
    so only a fleet loses anything): the objects that cell hosted vanish
    from the epoch's rows, its verdicts and the totals, and the run still
    reports ``ok``.  ``tests/analysis/test_fleet.py``'s check that every
    epoch folds every object kills it."""

    def __new__(cls, results, width):
        for cells in epoch_cells(results, width):
            yield cells[:-1] if len(cells) > 1 else cells
