"""Mutant: a recorder whose byte bound also evicts in-flight records.

Killed by ``tests/runtime/test_state_bounds.py`` — inside a SODA run at
64 KiB a client's ``respond()`` looks its own live operation up and gets
the "already evicted" error — and by the interleaving property of
``tests/consistency/test_stream.py``.
"""

from repro.consistency.stream import RETIRED_BYTE_BUDGET, StreamingRecorder


class EvictsInFlightRecorder(StreamingRecorder):
    """Counts in-flight values against the budget and evicts them too."""

    def _retire(self, record):
        super()._retire(record)
        active = self._active
        in_flight = sum(len(r.value) for r in active.values() if r.value is not None)
        while active and self.retired_bytes + in_flight > RETIRED_BYTE_BUDGET:
            evicted = active.pop(next(iter(active)))
            in_flight -= len(evicted.value or b"")
            self.evicted_count += 1
