"""Mutants of the SODA server; each docstring names the check that kills it,
and its row of :data:`mutants.MUTANTS` installs it over
``repro.core.soda.cluster.SodaServer``."""

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
