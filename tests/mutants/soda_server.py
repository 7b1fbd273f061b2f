"""Mutant: a SODA server whose straggler watermark is off by one read.

It marks the read *before* the finished one as over, so the watermark lags
one read behind and the READ-DISPERSE stragglers of the read that just
finished re-grow a history entry nothing cleans up: one leaked entry per
read per server.  Executions and values stay right — no checker can see it;
the per-read state bound of ``tests/runtime/test_state_bounds.py`` does.
"""

from repro.core.soda.server import SodaServer


class LaggingWatermarkServer(SodaServer):
    def _finish_read(self, reader_pid, seq):
        super()._finish_read(reader_pid, seq - 1)
