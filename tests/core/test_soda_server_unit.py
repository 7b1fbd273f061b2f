"""White-box unit tests of the SODA server automaton (Fig. 5).

These drive a single server's handlers directly (through the simulation, but
with hand-built messages) and verify the state-transition rules the paper's
pseudocode prescribes: storing only newer tags, relaying to registered
readers, the READ-COMPLETE-before-READ-VALUE marker, and unregistration once
``k`` distinct elements of one tag were sent to a reader.
"""

import numpy as np
import pytest

from repro.core.messages import (
    MDMeta,
    MDValueCoded,
    ReadCompletePayload,
    ReadDispersePayload,
    ReadGetRequest,
    ReadGetResponse,
    ReadValuePayload,
    ReadValueResponse,
    WriteAck,
    WriteGetRequest,
    WriteGetResponse,
)
from repro.core.soda.server import SodaServer
from repro.core.tags import TAG_ZERO, Tag
from repro.erasure.rs import ReedSolomonCode
from repro.metrics.costs import StorageTracker
from repro.sim.failures import DiskErrorModel
from repro.sim.network import FixedDelay
from repro.sim.process import Process
from repro.sim.simulation import Simulation


class Probe(Process):
    """Collects every message delivered to it."""

    def __init__(self, pid):
        super().__init__(pid)
        self.inbox = []

    def on_message(self, sender, message):
        self.inbox.append((sender, message))

    def of_type(self, cls):
        return [m for _, m in self.inbox if isinstance(m, cls)]


N, F = 5, 2
CODE = ReedSolomonCode(N, N - F)
SERVER_IDS = [f"s{i}" for i in range(N)]


def build_server(index=2, tracker=None):
    """One real server (s<index>) surrounded by probe processes."""
    sim = Simulation(seed=1, delay_model=FixedDelay(0.1))
    elements = CODE.encode(b"initial")
    server = SodaServer(
        pid=SERVER_IDS[index],
        index=index,
        servers_in_order=SERVER_IDS,
        f=F,
        code=CODE,
        initial_element=elements[index],
        storage_tracker=tracker,
    )
    probes = {}
    for i, pid in enumerate(SERVER_IDS):
        if i != index:
            probes[pid] = sim.add_process(Probe(pid))
    for pid in ("writer", "reader-proc"):
        probes[pid] = sim.add_process(Probe(pid))
    sim.add_process(server)
    return sim, server, probes


def deliver(sim, server, sender, message):
    """Inject a message as if it had arrived over the network."""
    sim.schedule(0.0, lambda: server.deliver(sender, message))
    sim.run()


def md_value_deliver(sim, server, tag, value, op_id="write:op", origin="writer"):
    """Drive the md-value-deliver event via a 'coded' primitive message."""
    element = CODE.encode(value)[server.index]
    msg = MDValueCoded(
        mid=(origin, hash((tag.z, tag.writer_id)) % 10_000),
        tag=tag,
        element=element,
        origin=origin,
        op_id=op_id,
        data_units=CODE.element_data_units,
    )
    deliver(sim, server, origin, msg)
    return element


def register_reader(sim, server, read_id="read:r0:1", tag=TAG_ZERO, seq=1):
    payload = ReadValuePayload(
        reader_pid="reader-proc", read_id=read_id, tag=tag, seq=seq
    )
    msg = MDMeta(mid=("reader-proc", hash(read_id) % 10_000), payload=payload,
                 origin="reader-proc", op_id=read_id)
    deliver(sim, server, "reader-proc", msg)


class TestQueries:
    def test_write_get_returns_local_tag(self):
        sim, server, probes = build_server()
        deliver(sim, server, "writer", WriteGetRequest(op_id="w1"))
        responses = probes["writer"].of_type(WriteGetResponse)
        assert len(responses) == 1
        assert responses[0].tag == TAG_ZERO

    def test_read_get_returns_local_tag(self):
        sim, server, probes = build_server()
        md_value_deliver(sim, server, Tag(3, "wx"), b"newer")
        deliver(sim, server, "reader-proc", ReadGetRequest(op_id="r1"))
        responses = probes["reader-proc"].of_type(ReadGetResponse)
        assert responses[-1].tag == Tag(3, "wx")


class TestMdValueDeliver:
    def test_stores_only_newer_tags(self):
        tracker = StorageTracker()
        sim, server, probes = build_server(tracker=tracker)
        md_value_deliver(sim, server, Tag(2, "w"), b"version 2")
        assert server.tag == Tag(2, "w")
        md_value_deliver(sim, server, Tag(1, "w"), b"stale version")
        assert server.tag == Tag(2, "w")  # unchanged
        # Storage is always exactly one coded element.
        assert tracker.current_total == pytest.approx(CODE.element_data_units)

    def test_always_acknowledges_writer(self):
        sim, server, probes = build_server()
        md_value_deliver(sim, server, Tag(2, "w"), b"v2", op_id="write:a")
        md_value_deliver(sim, server, Tag(1, "w"), b"v1", op_id="write:b")
        acks = probes["writer"].of_type(WriteAck)
        assert {a.op_id for a in acks} == {"write:a", "write:b"}
        assert all(a.server_index == server.index for a in acks)

    def test_relays_to_registered_reader_with_suitable_tag(self):
        sim, server, probes = build_server()
        register_reader(sim, server, read_id="read:r0:1", tag=Tag(1, "w"))
        md_value_deliver(sim, server, Tag(2, "w"), b"concurrent write")
        relayed = probes["reader-proc"].of_type(ReadValueResponse)
        assert any(r.tag == Tag(2, "w") for r in relayed)

    def test_does_not_relay_older_tag_than_requested(self):
        sim, server, probes = build_server()
        register_reader(sim, server, read_id="read:r0:1", tag=Tag(5, "z"))
        before = len(probes["reader-proc"].of_type(ReadValueResponse))
        md_value_deliver(sim, server, Tag(2, "w"), b"too old for this reader")
        after = len(probes["reader-proc"].of_type(ReadValueResponse))
        assert before == after


class TestReadValueRegistration:
    def test_registration_sends_local_element_when_tag_sufficient(self):
        sim, server, probes = build_server()
        register_reader(sim, server, tag=TAG_ZERO)
        responses = probes["reader-proc"].of_type(ReadValueResponse)
        assert len(responses) == 1
        assert responses[0].tag == TAG_ZERO
        assert responses[0].element.index == server.index
        assert "read:r0:1" in server.registered_readers

    def test_an_intact_disk_read_is_the_stored_element_itself(self):
        """No fresh ``CodedElement`` per registration when the disk handed
        back the stored bytes (always, without a disk-error model); a
        corrupted read is a new element and leaves the stored one alone."""
        sim, server, probes = build_server()
        register_reader(sim, server, tag=TAG_ZERO)
        (response,) = probes["reader-proc"].of_type(ReadValueResponse)
        assert response.element is server.element

        stored = server.element
        server.disk_errors = DiskErrorModel(
            np.random.default_rng(0), error_probability=1.0
        )
        register_reader(sim, server, read_id="read:r0:2", tag=TAG_ZERO)
        corrupted = probes["reader-proc"].of_type(ReadValueResponse)[-1].element
        assert corrupted.index == stored.index and corrupted.data != stored.data
        assert server.element is stored

    def test_registration_without_sending_when_tag_too_small(self):
        sim, server, probes = build_server()
        register_reader(sim, server, tag=Tag(7, "future"))
        assert probes["reader-proc"].of_type(ReadValueResponse) == []
        assert "read:r0:1" in server.registered_readers

    def test_read_complete_before_read_value_blocks_registration(self):
        """The paper's marker mechanism (note 2 of Section IV)."""
        sim, server, probes = build_server()
        complete = MDMeta(
            mid=("reader-proc", 77),
            payload=ReadCompletePayload(
                reader_pid="reader-proc", read_id="read:r0:1", tag=TAG_ZERO, seq=1
            ),
            origin="reader-proc",
            op_id="read:r0:1",
        )
        deliver(sim, server, "reader-proc", complete)
        assert "read:r0:1" in server.completed_reads
        # The marker lives in its own set, never in the history entries,
        # where it would collide with a genuine TAG_ZERO relay record.
        assert (TAG_ZERO, server.index, "read:r0:1") not in server.history_entries
        register_reader(sim, server, read_id="read:r0:1", tag=TAG_ZERO)
        assert "read:r0:1" not in server.registered_readers
        assert "read:r0:1" not in server.completed_reads
        assert probes["reader-proc"].of_type(ReadValueResponse) == []

    def test_tag_zero_disperse_entry_does_not_block_registration(self):
        """Regression for the sentinel collision: a *genuine* history entry
        ``(TAG_ZERO, self.index, read_id)`` — recorded when this server's
        relay of the initial value is dispersed — must not be mistaken for
        the READ-COMPLETE-overtook-registration marker."""
        sim, server, probes = build_server()
        # A READ-DISPERSE naming this very server for the initial tag
        # arrives before the reader's registration (entries for unregistered
        # readers are accumulated, note 1 of Section IV).
        payload = ReadDispersePayload(
            tag=TAG_ZERO,
            server_index=server.index,
            read_id="read:r0:1",
            reader_pid="reader-proc",
            seq=1,
        )
        msg = MDMeta(mid=("s0", 400), payload=payload, origin="s0", op_id="read:r0:1")
        deliver(sim, server, "s0", msg)
        assert (TAG_ZERO, server.index, "read:r0:1") in server.history_entries
        # The late READ-VALUE must still register the reader and relay the
        # locally stored element (the old sentinel encoding refused both).
        register_reader(sim, server, read_id="read:r0:1", tag=TAG_ZERO)
        assert "read:r0:1" in server.registered_readers
        assert probes["reader-proc"].of_type(ReadValueResponse) != []

    def test_read_complete_unregisters_and_purges(self):
        sim, server, probes = build_server()
        register_reader(sim, server)
        assert server.registered_readers
        complete = MDMeta(
            mid=("reader-proc", 78),
            payload=ReadCompletePayload(
                reader_pid="reader-proc", read_id="read:r0:1", tag=TAG_ZERO, seq=1
            ),
            origin="reader-proc",
            op_id="read:r0:1",
        )
        deliver(sim, server, "reader-proc", complete)
        assert server.registered_readers == {}
        assert all(e[2] != "read:r0:1" for e in server.history_entries)


class TestReadDisperse:
    def test_unregisters_after_k_distinct_elements(self):
        sim, server, probes = build_server()
        register_reader(sim, server, tag=Tag(1, "w"))
        tag = Tag(1, "w")
        # READ-DISPERSE notifications from k different servers for this tag.
        for src in range(CODE.k):
            payload = ReadDispersePayload(
                tag=tag,
                server_index=src,
                read_id="read:r0:1",
                reader_pid="reader-proc",
                seq=1,
            )
            msg = MDMeta(mid=(f"s{src}", 100 + src), payload=payload,
                         origin=f"s{src}", op_id="read:r0:1")
            deliver(sim, server, f"s{src}", msg)
        assert "read:r0:1" not in server.registered_readers
        assert all(e[2] != "read:r0:1" for e in server.history_entries)
        # The READ-COMPLETE arriving after threshold-unregistration must not
        # leave a permanent completed-read marker (its READ-VALUE was
        # already processed and will never recur to clear it).
        complete = MDMeta(
            mid=("reader-proc", 101 + CODE.k),
            payload=ReadCompletePayload(
                reader_pid="reader-proc", read_id="read:r0:1", tag=tag, seq=1
            ),
            origin="reader-proc",
            op_id="read:r0:1",
        )
        deliver(sim, server, "reader-proc", complete)
        assert "read:r0:1" not in server.completed_reads

    def test_fewer_than_k_keeps_reader_registered(self):
        sim, server, probes = build_server()
        register_reader(sim, server, tag=Tag(1, "w"))
        tag = Tag(1, "w")
        for src in range(CODE.k - 1):
            payload = ReadDispersePayload(
                tag=tag,
                server_index=src,
                read_id="read:r0:1",
                reader_pid="reader-proc",
                seq=1,
            )
            msg = MDMeta(mid=(f"s{src}", 200 + src), payload=payload,
                         origin=f"s{src}", op_id="read:r0:1")
            deliver(sim, server, f"s{src}", msg)
        assert "read:r0:1" in server.registered_readers

    def test_entries_for_unregistered_reader_are_accumulated(self):
        """Entries arriving before registration are kept so the server can
        unregister the reader promptly once it does register (note 1)."""
        sim, server, probes = build_server()
        payload = ReadDispersePayload(
            tag=Tag(1, "w"), server_index=0, read_id="read:r9:1", reader_pid="r9", seq=1
        )
        msg = MDMeta(mid=("s0", 300), payload=payload, origin="s0", op_id="read:r9:1")
        deliver(sim, server, "s0", msg)
        assert (Tag(1, "w"), 0, "read:r9:1") in server.history_entries
        assert "read:r9:1" not in server.registered_readers


class TestFinishedReads:
    """The per-reader watermark behind the READ-DISPERSE straggler filter."""

    @staticmethod
    def complete(sim, server, seq):
        read_id = f"read:r0:{seq}"
        payload = ReadCompletePayload(
            reader_pid="reader-proc", read_id=read_id, tag=TAG_ZERO, seq=seq
        )
        msg = MDMeta(mid=("reader-proc", 500 + seq), payload=payload,
                     origin="reader-proc", op_id=read_id)
        deliver(sim, server, "reader-proc", msg)

    @staticmethod
    def straggler(sim, server, seq, src):
        read_id = f"read:r0:{seq}"
        payload = ReadDispersePayload(
            tag=TAG_ZERO, server_index=src, read_id=read_id,
            reader_pid="reader-proc", seq=seq,
        )
        msg = MDMeta(mid=(f"s{src}", 600 + 10 * seq + src), payload=payload,
                     origin=f"s{src}", op_id=read_id)
        deliver(sim, server, f"s{src}", msg)

    def test_a_read_finished_out_of_order_closes_into_the_watermark(self):
        sim, server, probes = build_server()
        # Read 2 runs its whole course here while read 1's READ-VALUE and
        # READ-COMPLETE are still under way (asynchronous links).
        register_reader(sim, server, read_id="read:r0:2", seq=2)
        self.complete(sim, server, 2)
        assert server._done_above == {("reader-proc", 2)}
        assert server._done_upto["reader-proc"] == 0
        # Read 2 is over here: its stragglers leave nothing.  Read 1 is not.
        self.straggler(sim, server, seq=2, src=0)
        self.straggler(sim, server, seq=1, src=0)
        assert {entry[2] for entry in server.history_entries} == {"read:r0:1"}
        register_reader(sim, server, read_id="read:r0:1", seq=1)
        self.complete(sim, server, 1)
        assert server._done_upto["reader-proc"] == 2 and not server._done_above
        self.straggler(sim, server, seq=1, src=1)
        assert server.per_read_entries == 0

    def test_a_cancelled_registration_counts_as_finished(self):
        sim, server, probes = build_server()
        self.complete(sim, server, 1)  # overtook the READ-VALUE
        assert server._done_upto["reader-proc"] == 0
        register_reader(sim, server, read_id="read:r0:1", seq=1)
        assert server._done_upto["reader-proc"] == 1
        self.straggler(sim, server, seq=1, src=0)
        assert server.per_read_entries == 0
