"""Mutants of the protocol clients; each docstring names the check that kills
it, and its row of :data:`mutants.MUTANTS` installs it over the name its
cluster module builds writers from."""

from repro.baselines.abd import AbdQueryResponse, AbdReader
from repro.baselines.cas import CasFinalizeRequest, CasWriter
from repro.core.messages import WriteGetResponse
from repro.core.soda.reader import SodaReader
from repro.core.soda.writer import SodaWriter
from repro.core.sodaerr.reader import SodaErrReader
from repro.core.tags import max_tag
from repro.erasure.batch import CachedDecoder


class TagReusingSodaWriter(SodaWriter):
    """Writes under ``t_max`` instead of ``t_max.next_for(w)``.

    The servers already hold ``t_max``, so they ack the write but never store
    it (a server replaces its element only for a higher tag), and a read that
    starts after the write completed returns the older value.  The atomicity
    checkers see it: ``tests/core/test_client.py::check_soda_write_then_read``.
    """

    def on_message(self, sender, message):
        op = self._current
        if (
            op is None
            or type(message) is not WriteGetResponse
            or message.op_id != op.op_id
            or op.phase != "get"
        ):
            return
        op.get_responses[sender] = message.tag
        if len(op.get_responses) >= self.majority:
            op.tag = max_tag(op.get_responses.values())  # no next_for: the mutation
            op.phase = "put"
            self._md_sender.md_value_send(op.tag, op.value, op_id=op.op_id)


class SkipsReadCompleteSodaReader(SodaReader):
    """Returns the decoded value without ``md-meta-send(READ-COMPLETE)``.

    Every read it makes is still atomic, and the relay threshold still
    unregisters most of them.  A server that its READ-VALUE reached after
    the elements that would have unregistered it keeps the registration for
    good, and relays every later write to a reader that no longer listens:
    ``tests/core/test_soda_read_lifetime.py::check_soda_reads_leave_no_per_read_state``.
    """

    def _on_element(self, message):
        op = self._current
        if op is None or message.op_id != op.op_id or op.phase != "value":
            return
        if message.tag < op.target_tag:
            return
        per_tag = op.collected.setdefault(message.tag, {})
        per_tag[message.element.index] = message.element
        if len(per_tag) < self.decode_threshold:
            return
        value = self.decoder.decode(message.tag, list(per_tag.values()))
        self._end(value, message.tag)  # no READ-COMPLETE: the mutation


class UnfinalizedCasWriter(CasWriter):
    """Completes after the pre-write quorum and never finalizes.

    Readers only see finalized tags, so a read that starts after the write
    completed returns the older value.  The atomicity checkers see it:
    ``tests/core/test_client.py::check_cas_write_then_read``, and through
    the tags ``check_cas_write_then_read_tags`` (Lemma 2.1's P1: the read
    carries the initial tag, below the writes that completed before it; and
    P2: the second write, seeing no finalized tag above the initial one,
    reuses the first's).
    """

    def send_many(self, dsts, message):
        if type(message) is CasFinalizeRequest:
            self._end(None, message.tag)
            return
        super().send_many(dsts, message)


class NoWriteBackAbdReader(AbdReader):
    """Returns the highest-tagged value of its query quorum without writing
    it back (regular, not atomic).

    A read that sees a write's value on a server the write reached first,
    followed by a read whose quorum the write has not reached yet, is a
    new-old inversion.
    """

    def on_message(self, sender, message):
        op = self._current
        if (
            op is None
            or type(message) is not AbdQueryResponse
            or message.op_id != op.op_id
            or op.phase != "query"
        ):
            return
        op.responses[sender] = (message.tag, message.value)
        if len(op.responses) >= self.majority:
            tag = max_tag(t for t, _ in op.responses.values())
            value = next(v for t, v in op.responses.values() if t == tag)
            self._end(value, tag)  # no write-back phase: the mutation


class UnderstatedErrorSodaErrReader(SodaErrReader):
    """Decodes as if ``e - 1`` elements could be wrong: from ``k + 2(e - 1)``
    elements, with ``max_errors = e - 1``.

    When the one element too many that it does not wait for is the corrupt
    one, the decode returns a value nobody wrote (at ``e = 1`` a plain
    erasure decode of ``k`` elements, one of them corrupt).
    """

    def __init__(self, pid, servers_in_order, f, code, e, history, decoder=None):
        understated = e - 1
        super().__init__(
            pid,
            servers_in_order,
            f,
            code,
            understated,
            history,
            CachedDecoder(code, max_errors=understated),
        )
