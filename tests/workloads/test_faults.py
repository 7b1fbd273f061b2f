"""Tests for the unified fault-plan composite, its surface syntax, each
leg's materialisation and the message adversaries the legs install."""

from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import MessageRecord, SlowDisk
from repro.sim.simulation import Simulation, derive_seed
from repro.workloads.faults import (
    ELEMENT_MESSAGES,
    REGISTRATION_WINDOW_MESSAGES,
    CrashLeg,
    DelayAdversaryLeg,
    FaultPlan,
    PartitionAdversary,
    PartitionLeg,
    SlowLeg,
    WithholdingAdversary,
    WithholdLeg,
    as_fault_plan,
    parse_faults,
)

SERVERS = [f"s{i}" for i in range(6)]


class Host:
    """The surface of a register object a fault plan materialises on: an
    ``[n = 6, k = 4]`` server set that keeps the crash schedules it is
    given."""

    n = 6
    code = SimpleNamespace(k=4)
    server_ids = SERVERS

    def __init__(self) -> None:
        self.schedules = []

    def apply_crash_schedule(self, schedule) -> None:
        self.schedules.append(schedule)


def apply(plan, seed, objects=1, sim=None):
    """``plan`` applied to ``objects`` hosts on ``sim`` (a fresh one by
    default): the ground truth per object."""
    sim = sim if sim is not None else Simulation()
    hosted = [(gid, Host()) for gid in range(objects)]
    return plan.apply(sim, hosted, objects, seed).objects


class TestParseFaults:
    def test_none_is_empty_plan(self):
        assert not parse_faults("none")
        assert not parse_faults("")
        assert parse_faults("  none  ").spec() == "none"

    def test_single_leg_defaults(self):
        plan = parse_faults("withhold")
        assert plan.withhold == WithholdLeg()
        assert plan.crash is None

    def test_full_composite(self):
        plan = parse_faults(
            "crash:2:1:4:0.5;slow:1:3;delayadv:6:2:10;"
            "withhold:1:40:30;partition:2:10:12"
        )
        assert plan.crash == CrashLeg(count=2, start_lo=1, start_hi=4, width=0.5)
        assert plan.slow == SlowLeg(count=1, extra=3)
        assert plan.delay_adversary == DelayAdversaryLeg(factor=6, start=2, duration=10)
        assert plan.withhold == WithholdLeg(short=1, start=40, duration=30)
        assert plan.partition == PartitionLeg(isolated=2, start=10, duration=12)

    def test_spec_round_trips(self):
        spec = "crash:2:1:4:0.5;withhold:1:40:30:0;partition:2:10:12"
        assert parse_faults(spec).spec() == spec
        # Canonicalised again, the spec is a fixed point.
        assert parse_faults(parse_faults(spec).spec()).spec() == spec

    def test_unknown_leg_rejected(self):
        with pytest.raises(ValueError, match="unknown fault leg"):
            parse_faults("meteor:3")

    def test_duplicate_leg_rejected(self):
        with pytest.raises(ValueError, match="duplicate fault leg"):
            parse_faults("crash:1;crash:2")

    def test_non_numeric_field_rejected(self):
        with pytest.raises(ValueError, match="invalid numeric field"):
            parse_faults("crash:two")

    def test_fractional_count_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            parse_faults("withhold:1.5")

    def test_excess_fields_rejected(self):
        with pytest.raises(ValueError, match="partition leg takes"):
            parse_faults("partition:2:1:2:3")

    def test_leg_validation_surfaces(self):
        with pytest.raises(ValueError, match="factor must be at least 1"):
            parse_faults("delayadv:0.5")
        with pytest.raises(ValueError, match="short must be at least 1"):
            parse_faults("withhold:0")


class TestAsFaultPlan:
    def test_accepts_string_and_plan(self):
        plan = FaultPlan(withhold=WithholdLeg())
        assert as_fault_plan(plan) is plan
        assert as_fault_plan("withhold") == plan
        assert as_fault_plan("none").spec() == "none"

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="FaultPlan or fault spec"):
            as_fault_plan(42)

    def test_invalid_spec_propagates(self):
        with pytest.raises(ValueError):
            as_fault_plan("bogus:1")


class TestWithholdLeg:
    def test_withheld_count_is_n_minus_k_plus_short(self):
        leg = WithholdLeg(short=1)
        assert leg.withheld_count(6, 4) == 3

    def test_overfull_withhold_rejected(self):
        with pytest.raises(ValueError, match="withholding"):
            WithholdLeg(short=5).withheld_count(6, 4)


class TestDeterminism:
    """Every leg materialises as a pure function of its derived rng."""

    @given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 64))
    @settings(max_examples=50, deadline=None)
    def test_leg_seeds_are_stable_and_leg_scoped(self, seed, index):
        withhold = derive_seed("faults", seed, "withhold", index)
        assert withhold == derive_seed("faults", seed, "withhold", index)
        assert withhold != derive_seed("faults", seed, "partition", index)
        assert 0 <= derive_seed("faults", seed, "crash", index) < 2**63 - 1

    @given(seed=st.integers(0, 2**32 - 1), objects=st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_crash_leg_rederivation_is_byte_identical(self, seed, objects):
        plan = FaultPlan(crash=CrashLeg(count=2, start_lo=1.0, start_hi=4.0, width=0.5))
        first = apply(plan, seed, objects)
        assert first == apply(plan, seed, objects)
        for obj in first:
            assert len(obj.crashed) == 2
            assert all(1.0 <= t <= 4.5 for _, t in obj.crashed)

    @given(seed=st.integers(0, 2**32 - 1), objects=st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_drawing_legs_rederivation_is_identical(self, seed, objects):
        plan = FaultPlan(
            slow=SlowLeg(count=2),
            withhold=WithholdLeg(short=1),
            partition=PartitionLeg(isolated=2),
        )
        first = apply(plan, seed, objects)
        assert first == apply(plan, seed, objects)
        for obj in first:
            assert (len(obj.slow), len(obj.withheld), len(obj.isolated)) == (2, 3, 2)
            for drawn in (obj.slow, obj.withheld, obj.isolated):
                assert list(drawn) == sorted(set(drawn), key=SERVERS.index)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_objects_draw_independent_victims(self, seed):
        # Epoch sharding re-derives per-object rngs; different objects must
        # not share a stream (else one shard's consumption would skew
        # another's draw).
        applied = apply(FaultPlan(partition=PartitionLeg(isolated=2)), seed, 16)
        assert len({obj.isolated for obj in applied}) > 1


class TestMaterialisation:
    def test_empty_plan_touches_nothing(self):
        sim = Simulation()
        model = sim.network.delay_model
        assert apply(FaultPlan(), 0, 2, sim) == ()
        assert sim.network.delay_model is model
        assert sim.network._adversary is None

    def test_zero_count_legs_draw_nothing(self):
        sim = Simulation()
        model = sim.network.delay_model
        plan = FaultPlan(crash=CrashLeg(count=0), slow=SlowLeg(count=0))
        (obj,) = apply(plan, 0, sim=sim)
        assert (obj.crashed, obj.slow) == ((), ())
        assert sim.network.delay_model is model

    def test_crash_bursts_are_armed_on_each_object(self):
        hosted = [(gid, Host()) for gid in range(2)]
        applied = FaultPlan(crash=CrashLeg(count=2)).apply(Simulation(), hosted, 2, 0)
        for (_, host), obj in zip(hosted, applied.objects):
            (schedule,) = host.schedules
            assert tuple((e.pid, e.time) for e in schedule) == obj.crashed

    def test_slow_servers_of_every_object_share_one_wrap(self):
        sim = Simulation()
        model = sim.network.delay_model
        applied = apply(FaultPlan(slow=SlowLeg(count=1, extra=3.0)), 5, 3, sim)
        wrap = sim.network.delay_model
        assert isinstance(wrap, SlowDisk)
        assert (wrap.base, wrap.extra) == (model, 3.0)
        assert wrap.slow == {pid for obj in applied for pid in obj.slow}

    def test_withhold_records_the_surviving_elements(self):
        (obj,) = apply(FaultPlan(withhold=WithholdLeg(short=2, start=1, duration=4)), 0)
        assert len(obj.withheld) == (6 - 4) + 2
        assert (obj.surviving_elements, obj.below_k) == (2, True)
        assert obj.withhold_window == (1, 5)

    def test_overfull_draws_are_refused(self):
        with pytest.raises(ValueError, match="cannot slow 7 of 6 servers"):
            apply(FaultPlan(slow=SlowLeg(count=7)), 0)
        with pytest.raises(ValueError, match="cannot isolate 7 of 6 servers"):
            apply(FaultPlan(partition=PartitionLeg(isolated=7)), 0)

    def test_one_adversary_is_installed_unwrapped(self):
        sim = Simulation()
        apply(FaultPlan(delay_adversary=DelayAdversaryLeg(factor=2)), 0, sim=sim)
        assert sim.network._adversary == DelayAdversaryLeg(factor=2)


# Stand-ins named after the protocol messages the adversaries classify by
# type *name* — the classification is deliberately decoupled from the real
# dataclasses in repro.core.
@dataclass(frozen=True)
class ReadValueResponse:
    data_units: float = 1.0


@dataclass(frozen=True)
class ReadDispersePayload:
    data_units: float = 1.0


@dataclass(frozen=True)
class WriteAck:
    data_units: float = 0.0


@dataclass(frozen=True)
class MetadataEnvelope:
    payload: object
    data_units: float = 0.0


def record(src="s0", dst="r0", payload=None):
    return MessageRecord(
        src=src, dst=dst, payload=payload or ReadValueResponse(), sent_at=0.0
    )


def withholding(pids, start, end):
    return WithholdingAdversary(
        WithholdLeg(start=start, duration=end - start), frozenset(pids)
    )


def partition(pids, start, end):
    return PartitionAdversary(
        PartitionLeg(start=start, duration=end - start), frozenset(pids)
    )


class TestDelayAdversary:
    def test_stretches_targets_in_window_only(self):
        adv = DelayAdversaryLeg(factor=4.0, start=5.0, duration=5.0)
        assert adv.intervene(record(), 1.0, now=6.0) == (4.0, False)
        assert adv.intervene(record(), 1.0, now=4.0) == (1.0, False)
        assert adv.intervene(record(), 1.0, now=10.0) == (1.0, False)

    def test_non_target_untouched(self):
        adv = DelayAdversaryLeg(factor=4.0)
        assert adv.intervene(record(payload=WriteAck()), 1.0, now=0.0) == (
            1.0,
            False,
        )

    def test_classifies_inner_payload_of_envelopes(self):
        adv = DelayAdversaryLeg(factor=2.0)
        wrapped = MetadataEnvelope(payload=ReadValueResponse())
        assert adv.intervene(record(payload=wrapped), 1.0, now=0.0) == (2.0, False)

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            DelayAdversaryLeg(factor=0.5)

    def test_registration_window_targets(self):
        assert "ReadValueResponse" in REGISTRATION_WINDOW_MESSAGES
        assert "ReadValuePayload" in REGISTRATION_WINDOW_MESSAGES


class TestWithholdingAdversary:
    def test_drops_elements_from_withheld_source_in_window(self):
        adv = withholding({"s0"}, 5.0, 30.0)
        assert adv.intervene(record(src="s0"), 1.0, now=10.0) == (1.0, True)

    def test_metadata_still_flows(self):
        adv = withholding({"s0"}, 5.0, 30.0)
        rec = record(src="s0", payload=WriteAck())
        assert adv.intervene(rec, 1.0, now=10.0) == (1.0, False)

    def test_heals_after_window(self):
        adv = withholding({"s0"}, 5.0, 30.0)
        assert adv.intervene(record(src="s0"), 1.0, now=30.0) == (1.0, False)
        assert adv.intervene(record(src="s0"), 1.0, now=4.9) == (1.0, False)

    def test_healthy_servers_untouched(self):
        adv = withholding({"s0"}, 0.0, 100.0)
        assert adv.intervene(record(src="s1"), 1.0, now=10.0) == (1.0, False)

    def test_disperse_bookkeeping_is_withheld_too(self):
        # Dropping READ-DISPERSE alongside the relays keeps readers
        # registered at the healthy servers (the parked-read contract).
        adv = withholding({"s0"}, 0.0, 100.0)
        rec = record(src="s0", payload=ReadDispersePayload())
        assert adv.intervene(rec, 1.0, now=1.0) == (1.0, True)
        assert "AuditProbeResponse" in ELEMENT_MESSAGES


class TestPartitionAdversary:
    def test_drops_cut_crossing_both_directions(self):
        adv = partition({"s0"}, 5.0, 15.0)
        assert adv.intervene(record(src="s0", dst="s1"), 1.0, now=10.0)[1]
        assert adv.intervene(record(src="s1", dst="s0"), 1.0, now=10.0)[1]

    def test_traffic_within_either_side_flows(self):
        adv = partition({"s0", "s1"}, 5.0, 15.0)
        assert not adv.intervene(record(src="s0", dst="s1"), 1.0, now=10.0)[1]
        assert not adv.intervene(record(src="s2", dst="s3"), 1.0, now=10.0)[1]

    def test_partition_heals(self):
        adv = partition({"s0"}, 5.0, 15.0)
        assert not adv.intervene(record(src="s0", dst="s1"), 1.0, now=15.0)[1]
        assert not adv.intervene(record(src="s0", dst="s1"), 1.0, now=4.9)[1]


class DropTo:
    """An adversary installed before the plan: drops what is sent to one
    process."""

    def __init__(self, victim):
        self.victim = victim

    def intervene(self, record, delay, now):
        return delay, record.dst == self.victim


class TestAdversaryChain:
    def chain(self):
        sim = Simulation()
        sim.network.install_adversary(DropTo("r9"))
        plan = FaultPlan(
            delay_adversary=DelayAdversaryLeg(factor=3.0),
            withhold=WithholdLeg(start=0.0, duration=100.0),
        )
        (obj,) = apply(plan, 0, sim=sim)
        return sim.network._adversary, obj.withheld

    def test_first_drop_wins_and_delays_chain(self):
        chain, withheld = self.chain()
        healthy = next(pid for pid in SERVERS if pid not in withheld)
        assert chain.intervene(record(src=withheld[0]), 1.0, now=1.0)[1]
        assert chain.intervene(record(src=healthy), 1.0, now=1.0) == (3.0, False)

    def test_legs_chain_behind_the_installed_adversary(self):
        chain, _ = self.chain()
        assert isinstance(chain.children[0], DropTo)
        assert [type(child) for child in chain.children[1:]] == [
            DelayAdversaryLeg,
            WithholdingAdversary,
        ]
        healthy = record(src="s9", dst="r9")
        assert chain.intervene(healthy, 1.0, now=1.0) == (1.0, True)
