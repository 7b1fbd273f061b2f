"""Mutants of the SODA server; each docstring names the check that kills it,
and its row of :data:`mutants.MUTANTS` installs it over
``repro.core.soda.cluster.SodaServer``."""

from repro.core.messages import (
    ReadGetRequest,
    ReadGetResponse,
    WriteGetRequest,
    WriteGetResponse,
)
from repro.core.soda.server import SodaServer


class LaggingWatermarkServer(SodaServer):
    """The straggler watermark is off by one read.

    It marks the read *before* the finished one as over, so the watermark lags
    one read behind and the READ-DISPERSE stragglers of the read that just
    finished re-grow a history entry nothing cleans up: one leaked entry per
    read per server.  Executions and values stay right — no checker can see
    it; the per-read state bound of ``tests/runtime/test_state_bounds.py``
    does.
    """

    def _finish_read(self, reader_pid, seq):
        super()._finish_read(reader_pid, seq - 1)


class RewritingRelayServer(SodaServer):
    """Stamps its own index on every READ-DISPERSE it is delivered.

    The payload object is the one every other server is about to receive, so
    they count relays under the wrong sender and unregister readers at the
    wrong time.  Reads still decode and stay atomic (READ-COMPLETE
    unregisters regardless) — the atomicity checker does not see it, only the
    event count and costs drift; the sent-payload check of
    ``tests/sim/test_message_path.py`` does.
    """

    def _on_read_disperse(self, payload):
        super()._on_read_disperse(payload)
        payload.server_index = self.index


class StaleTagSodaServer(SodaServer):
    """Answers a tag query with the tag it held before its current one.

    Every WRITE-GET and READ-GET sees a tag below the one the server stores.
    A writer's second write then picks the tag of its first, the servers
    refuse to store a tag they already hold, and the write completes without
    its value ever being stored: the read after it returns the first value,
    which ``core/test_client.py::check_soda_write_then_read`` flags as a
    ``cluster-cycle``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._previous_tag = self.tag

    def _on_md_value_deliver(self, tag, element, origin, op_id):
        held = self.tag
        super()._on_md_value_deliver(tag, element, origin, op_id)
        if self.tag != held:
            self._previous_tag = held

    def on_message(self, sender, message):
        if type(message) is WriteGetRequest:
            self.send(sender, WriteGetResponse(message.op_id, self._previous_tag))
        elif type(message) is ReadGetRequest:
            self.send(sender, ReadGetResponse(message.op_id, self._previous_tag))
        else:
            super().on_message(sender, message)
