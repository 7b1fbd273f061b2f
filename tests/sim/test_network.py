"""Tests for the network layer: delay models, delivery, cost accounting."""

from dataclasses import dataclass

import numpy as np
import pytest

from exponential_delay import ExponentialDelay

from repro.sim.network import (
    DelayModel,
    FixedDelay,
    UniformDelay,
)
from repro.sim.process import Process
from repro.sim.simulation import Simulation


@dataclass
class Payload:
    """A message carrying cost-accounting attributes."""

    body: str
    data_units: float = 0.0
    op_id: object = None


class Sink(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.got = []

    def on_message(self, sender, message):
        self.got.append((sender, message, self.now))


class TestDelayModels:
    def test_fixed_delay(self):
        model = FixedDelay(2.5)
        rng = np.random.default_rng(0)
        assert model.sample("a", "b", rng) == 2.5

    def test_fixed_delay_negative_rejected(self):
        with pytest.raises(ValueError):
            FixedDelay(-1.0)

    def test_uniform_delay_bounds(self):
        model = UniformDelay(0.5, 2.0)
        rng = np.random.default_rng(0)
        samples = [model.sample("a", "b", rng) for _ in range(200)]
        assert all(0.5 <= s <= 2.0 for s in samples)

    def test_uniform_delay_invalid(self):
        with pytest.raises(ValueError):
            UniformDelay(2.0, 1.0)
        with pytest.raises(ValueError):
            UniformDelay(-1.0, 1.0)

    def test_exponential_delay(self):
        model = ExponentialDelay(mean=1.0, base=0.2, cap=5.0)
        rng = np.random.default_rng(0)
        samples = [model.sample("a", "b", rng) for _ in range(200)]
        assert all(0.2 <= s <= 5.0 for s in samples)

    def test_exponential_delay_invalid(self):
        with pytest.raises(ValueError):
            ExponentialDelay(mean=0)
        with pytest.raises(ValueError):
            ExponentialDelay(mean=1, base=-0.1)
        with pytest.raises(ValueError):
            ExponentialDelay(mean=1, base=2.0, cap=1.0)

    @pytest.mark.parametrize(
        "model",
        [
            FixedDelay(1.5),
            UniformDelay(0.5, 2.0),
            ExponentialDelay(mean=1.0, base=0.2, cap=5.0),
            ExponentialDelay(mean=0.7),
        ],
        ids=["fixed", "uniform", "exp-capped", "exp-uncapped"],
    )
    def test_sample_block_matches_scalar_stream(self, model):
        """The vectorized buffer contract: a block of n draws must consume
        the generator stream exactly as n successive scalar sample() calls
        — this is what keeps batched executions bit-identical."""
        r1, r2 = np.random.default_rng(42), np.random.default_rng(42)
        block = model.sample_block(64, r1)
        scalars = [model.sample("a", "b", r2) for _ in range(64)]
        assert block == scalars
        assert r1.bit_generator.state == r2.bit_generator.state

    def test_slow_disk_opts_out_of_block_sampling(self):
        from repro.sim.network import SlowDisk

        model = SlowDisk(FixedDelay(1.0), slow=["s0"], extra=2.0)
        assert model.sample_block(8, np.random.default_rng(0)) is None

    def test_block_sampling_execution_identical_to_scalar(self):
        """End-to-end: a run under the vectorized delay buffer is
        delivery-for-delivery identical to a forced-scalar run (more sends
        than one 256-sample refill, so the boundary is crossed)."""

        class ScalarOnly(UniformDelay):
            def sample_block(self, n, rng):
                return None

        def timeline(model):
            sim = Simulation(seed=9, delay_model=model, keep_message_trace=True)
            a, _ = sim.add_processes([Sink("a"), Sink("b")])
            for i in range(300):
                sim.schedule(0.01 * i, lambda: a.send("b", Payload("x")))
            sim.run()
            return [(r.sent_at, r.delivered_at) for r in sim.network.trace]

        assert timeline(UniformDelay(0.1, 1.0)) == timeline(ScalarOnly(0.1, 1.0))

    def test_inline_and_listener_cost_tracking_agree(self):
        """The first tracker per network is accounted inline on the send
        fast path, later ones through the listener interface; both must
        report identical aggregates for identical traffic."""
        from repro.metrics.costs import CommunicationCostTracker

        sim = Simulation(seed=4)
        inline = CommunicationCostTracker().attach(sim.network)
        listener = CommunicationCostTracker().attach(sim.network)
        a, _ = sim.add_processes([Sink("a"), Sink("b")])
        sim.schedule(0.0, lambda: a.send("b", Payload("x", data_units=0.5, op_id="op1")))
        sim.schedule(0.0, lambda: a.send("b", Payload("y")))
        sim.run()
        for tracker in (inline, listener):
            assert tracker.cost_of("op1") == 0.5
        assert inline.costs() == listener.costs() == {"op1": 0.5}

    def test_delay_model_swap_mid_run_uses_new_model(self):
        sim = Simulation(seed=3, delay_model=FixedDelay(1.0))
        a, b = sim.add_processes([Sink("a"), Sink("b")])
        a.send("b", Payload("first"))
        sim.run()
        sim.network.delay_model = FixedDelay(7.0)
        sent_at = sim.now
        a.send("b", Payload("second"))
        sim.run()
        assert b.got[-1][2] == pytest.approx(sent_at + 7.0)

    def test_fixed_delay_delivery_time(self):
        sim = Simulation(seed=0, delay_model=FixedDelay(3.0))
        a, b = sim.add_processes([Sink("a"), Sink("b")])
        sim.schedule(1.0, lambda: a.send("b", Payload("hi")))
        sim.run()
        assert b.got[0][2] == pytest.approx(4.0)


class TestDeliverySemantics:
    def test_messages_not_lost(self):
        sim = Simulation(seed=5)
        a, b = sim.add_processes([Sink("a"), Sink("b")])
        sim.schedule(0.0, lambda: [a.send("b", Payload(f"m{i}")) for i in range(50)])
        sim.run()
        assert len(b.got) == 50
        assert sim.network.stats.messages_delivered == 50

    def test_non_fifo_delivery_possible(self):
        """With random delays, send order need not equal delivery order."""
        sim = Simulation(seed=12, delay_model=UniformDelay(0.1, 10.0))
        a, b = sim.add_processes([Sink("a"), Sink("b")])
        sim.schedule(
            0.0, lambda: [a.send("b", Payload(f"m{i}")) for i in range(20)]
        )
        sim.run()
        received_order = [msg.body for _, msg, _ in b.got]
        assert sorted(received_order) == sorted(f"m{i}" for i in range(20))
        assert received_order != [f"m{i}" for i in range(20)]

    def test_delivery_to_unknown_process_is_dropped(self):
        sim = Simulation(seed=5)
        (a,) = sim.add_processes([Sink("a")])
        sim.schedule(0.0, lambda: a.send("ghost", Payload("boo")))
        sim.run()
        assert sim.network.stats.messages_dropped == 1

    def test_stats_data_units(self):
        sim = Simulation(seed=5)
        a, b = sim.add_processes([Sink("a"), Sink("b")])
        sim.schedule(0.0, lambda: a.send("b", Payload("v", data_units=0.5)))
        sim.schedule(0.0, lambda: a.send("b", Payload("meta")))
        sim.run()
        assert sim.network.stats.total_data_units == pytest.approx(0.5)
        assert sim.network.stats.metadata_messages == 1
        assert sim.network.stats.messages_sent == 2

    def test_trace_recording(self):
        sim = Simulation(seed=5, keep_message_trace=True)
        a, b = sim.add_processes([Sink("a"), Sink("b")])
        sim.schedule(0.0, lambda: a.send("b", Payload("v", data_units=0.25, op_id="op1")))
        sim.run()
        assert len(sim.network.trace) == 1
        rec = sim.network.trace[0]
        assert rec.src == "a" and rec.dst == "b"
        assert rec.data_units == 0.25
        assert rec.op_id == "op1"
        assert rec.delivered_at is not None and rec.delivered_at >= rec.sent_at

    def test_listeners(self):
        sim = Simulation(seed=5)
        a, b = sim.add_processes([Sink("a"), Sink("b")])
        sends, delivers = [], []
        sim.network.on_send(sends.append)
        sim.network.on_deliver(delivers.append)
        sim.schedule(0.0, lambda: a.send("b", Payload("v")))
        sim.run()
        assert len(sends) == 1 and len(delivers) == 1

    def test_negative_delay_model_rejected_at_send(self):
        # Delay validation is hoisted into model construction; a model that
        # sneaks a negative delay past its constructor is a bug caught by
        # the send path's debug-mode assert (not a per-message ValueError).
        class Broken(DelayModel):
            def sample(self, src, dst, rng):
                return -1.0

        sim = Simulation(seed=5, delay_model=Broken())
        a, b = sim.add_processes([Sink("a"), Sink("b")])
        sim.schedule(0.0, lambda: a.send("b", Payload("v")))
        with pytest.raises(AssertionError):
            sim.run()
