"""Mutants of the streaming recorder.

``EvictsInFlightRecorder`` — a byte bound that also evicts in-flight
records.  Inside a SODA run at 64 KiB a client's ``respond()`` looks its
own live operation up and gets the "already evicted" error
(``tests/runtime/test_state_bounds.py``), and so does the window contract of
``tests/consistency/test_stream.py``.

``RespondsTwiceRecorder`` — ``respond`` without the "already completed"
check, so a second response overwrites the first and reaches the observers
again (``tests/consistency/test_stream.py``).

The rows of :data:`mutants.MUTANTS` name the kill checks.
"""

from repro.consistency.stream import RETIRED_BYTE_BUDGET, StreamingRecorder


class EvictsInFlightRecorder(StreamingRecorder):
    """Counts in-flight values against the budget and evicts them too."""

    def _retire(self, record):
        super()._retire(record)
        active = self.in_flight()
        in_flight = sum(len(r.value) for r in active if r.value is not None)
        while active and self.retired_bytes + in_flight > RETIRED_BYTE_BUDGET:
            evicted = active.pop(0)
            del self._records[evicted.op_id]
            in_flight -= len(evicted.value or b"")
            self.evicted_count += 1


class RespondsTwiceRecorder(StreamingRecorder):
    """``HistorySink.respond`` minus the "already completed" check."""

    def respond(self, op_id, time, value=None, tag=None):
        record = self.get(op_id)
        if time < record.invoked_at:
            raise ValueError("response cannot precede invocation")
        record.responded_at = time
        if value is not None:
            record.value = value
        if tag is not None:
            record.tag = tag
        self.completed_count += 1
        for observer in self._observers:
            observer.on_complete(record)
        self._retire(record)
        return record
