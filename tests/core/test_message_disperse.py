"""Tests for the MD-VALUE and MD-META message-disperse primitives.

These exercise the consistency properties of Section III (validity and
uniformity) directly on the primitive, independent of the SODA protocol:
if any server delivers, every non-faulty server delivers, even when the
sender and up to f servers crash.
"""

import pytest

from repro.core.message_disperse import MDSender, MDServerEngine
from repro.core.tags import Tag
from repro.erasure.rs import ReedSolomonCode
from repro.sim.network import UniformDelay
from repro.sim.process import Process
from repro.sim.simulation import Simulation


class RecordingServer(Process):
    """A minimal server that records every primitive delivery."""

    def __init__(self, pid, index, server_ids, f, code):
        super().__init__(pid)
        self.value_deliveries = []
        self.meta_deliveries = []
        self.engine = MDServerEngine(
            server=self,
            server_index=index,
            servers_in_order=server_ids,
            f=f,
            code=code,
            on_value_deliver=lambda tag, el, origin, op: self.value_deliveries.append(
                (tag, el, origin, op)
            ),
            on_meta_deliver=lambda payload, origin, op: self.meta_deliveries.append(
                (payload, origin, op)
            ),
        )
        self.handlers = self.engine.handler_map()



class Client(Process):
    def on_message(self, sender, message):
        pass


def build(n=5, f=2, seed=0):
    sim = Simulation(seed=seed, delay_model=UniformDelay(0.1, 1.0))
    code = ReedSolomonCode(n, n - f)
    server_ids = [f"s{i}" for i in range(n)]
    servers = [
        RecordingServer(pid, i, server_ids, f, code) for i, pid in enumerate(server_ids)
    ]
    sim.add_processes(servers)
    client = sim.add_process(Client("client"))
    sender = MDSender(client, server_ids, f)
    return sim, code, servers, client, sender


class TestMDSenderBasics:
    def test_dispersal_set_is_first_f_plus_one(self):
        _, _, _, _, sender = build(n=7, f=3)
        assert sender._dispersal == ("s0", "s1", "s2", "s3")

    def test_mid_uniqueness(self):
        sim, code, servers, client, sender = build()
        mid1 = sender.md_meta_send("a", op_id="op")
        mid2 = sender.md_meta_send("b", op_id="op")
        assert mid1 != mid2
        assert mid1[0] == "client"

    def test_invalid_f(self):
        sim, code, servers, client, _ = build()
        with pytest.raises(ValueError):
            MDSender(client, ["s0", "s1"], f=2)
        with pytest.raises(ValueError):
            MDSender(client, ["s0", "s1"], f=-1)


class TestMDValue:
    def test_every_server_delivers_its_own_coded_element(self):
        sim, code, servers, client, sender = build(n=6, f=2)
        value = b"disperse me to everyone"
        expected = code.encode(value)
        tag = Tag(1, "client")
        sim.schedule(0.0, lambda: sender.md_value_send(tag, value, op_id="op-w"))
        sim.run()
        for i, server in enumerate(servers):
            assert len(server.value_deliveries) == 1
            got_tag, element, origin, op = server.value_deliveries[0]
            assert got_tag == tag
            assert element == expected[i]
            assert origin == "client"
            assert op == "op-w"

    def test_validity_no_spurious_delivery(self):
        sim, _, servers, _, _ = build()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert all(s.value_deliveries == [] for s in servers)

    def test_uniformity_with_sender_crash_after_first_send(self):
        """If the sender crashes after reaching only the first server, the
        relay chain must still deliver coded elements everywhere."""
        sim, code, servers, client, sender = build(n=6, f=2, seed=7)
        value = b"value that must survive the crash of its writer"
        tag = Tag(1, "client")

        def send_partially():
            # Bypass MDSender to model a sender crashing mid-send: only the
            # first server of the dispersal set receives the full message.
            from repro.core.messages import MDValueFull

            client.send(
                "s0",
                MDValueFull(
                    mid=("client", 99),
                    tag=tag,
                    value=value,
                    origin="client",
                    op_id="op-crash",
                ),
            )
            client.crash()

        sim.schedule(0.0, send_partially)
        sim.run()
        expected = code.encode(value)
        for i, server in enumerate(servers):
            assert len(server.value_deliveries) == 1
            assert server.value_deliveries[0][1] == expected[i]

    @pytest.mark.parametrize("crashed", [[0], [1, 2], [0, 1]])
    def test_uniformity_with_f_server_crashes(self, crashed):
        """With up to f crashed servers, every *non-faulty* server delivers."""
        sim, code, servers, client, sender = build(n=6, f=2, seed=11)
        for idx in crashed:
            servers[idx].crash()
        tag = Tag(2, "client")
        value = b"tolerates f crashes"
        sim.schedule(0.0, lambda: sender.md_value_send(tag, value, op_id="op"))
        sim.run()
        expected = code.encode(value)
        for i, server in enumerate(servers):
            if i in crashed:
                assert server.value_deliveries == []
            else:
                assert len(server.value_deliveries) == 1
                assert server.value_deliveries[0][1] == expected[i]

    def test_duplicate_full_messages_deliver_once(self):
        sim, code, servers, client, sender = build(n=5, f=2)
        tag = Tag(1, "client")
        value = b"exactly once"
        # Two separate invocations -> two deliveries; duplicates within one
        # invocation (relays) must not cause extra deliveries.
        sim.schedule(0.0, lambda: sender.md_value_send(tag, value, op_id="op1"))
        sim.schedule(0.0, lambda: sender.md_value_send(tag, value, op_id="op2"))
        sim.run()
        for server in servers:
            assert len(server.value_deliveries) == 2

    def test_f_zero_single_server_dispersal(self):
        sim, code, servers, client, sender = build(n=4, f=0)
        tag = Tag(1, "client")
        sim.schedule(0.0, lambda: sender.md_value_send(tag, b"f=0", op_id="op"))
        sim.run()
        assert all(len(s.value_deliveries) == 1 for s in servers)


class TestMDMeta:
    def test_every_server_delivers_payload_verbatim(self):
        sim, code, servers, client, sender = build(n=7, f=3)
        payload = ("READ-VALUE", "r1", 42)
        sim.schedule(0.0, lambda: sender.md_meta_send(payload, op_id="op-r"))
        sim.run()
        for server in servers:
            assert server.meta_deliveries == [(payload, "client", "op-r")]

    def test_uniformity_with_sender_crash(self):
        sim, code, servers, client, sender = build(n=5, f=2, seed=3)
        payload = "must reach everyone"

        def send_partially():
            from repro.core.messages import MDMeta

            client.send(
                "s0", MDMeta(mid=("client", 5), payload=payload, origin="client", op_id="op")
            )
            client.crash()

        sim.schedule(0.0, send_partially)
        sim.run()
        for server in servers:
            assert [p for p, _, _ in server.meta_deliveries] == [payload]

    def test_server_initiated_meta_send(self):
        """Servers themselves use MD-META (READ-DISPERSE); the primitive must
        work when the sender is one of the servers."""
        sim, code, servers, client, _ = build(n=5, f=2)
        server_sender = MDSender(servers[4], [s.pid for s in servers], 2)
        sim.schedule(0.0, lambda: server_sender.md_meta_send("from s4", op_id="op"))
        sim.run()
        for server in servers:
            assert [p for p, _, _ in server.meta_deliveries] == ["from s4"]

    def test_meta_messages_cost_nothing(self):
        sim, code, servers, client, sender = build(n=5, f=2)
        sim.schedule(0.0, lambda: sender.md_meta_send("payload", op_id="op"))
        sim.run()
        assert sim.network.stats.total_data_units == 0.0

    def test_value_messages_cost_accounting(self):
        """f+1 full messages plus relays plus coded elements; total data units
        must stay within the write-cost bound of Theorem 5.4."""
        n, f = 6, 2
        sim, code, servers, client, sender = build(n=n, f=f)
        sim.schedule(0.0, lambda: sender.md_value_send(Tag(1, "c"), b"v" * 50, op_id="op"))
        sim.run()
        total = sim.network.stats.total_data_units
        assert total <= 5 * f * f
        # At least the initial f+1 full-value messages are always sent.
        assert total >= f + 1
