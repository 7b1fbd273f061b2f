"""Tests for the unified fault-plan composite and its surface syntax."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.simulation import derive_seed
from repro.workloads.faults import (
    CrashLeg,
    DelayAdversaryLeg,
    FaultPlan,
    PartitionLeg,
    SlowLeg,
    WithholdLeg,
    canonical_fault_spec,
    parse_faults,
)

SERVERS = [f"s{i}" for i in range(6)]


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


class TestCanonicalFaultSpec:
    def test_accepts_string_and_plan(self):
        plan = FaultPlan(withhold=WithholdLeg())
        assert canonical_fault_spec(plan) == plan.spec()
        assert canonical_fault_spec("withhold") == plan.spec()
        assert canonical_fault_spec("none") == "none"

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="FaultPlan or fault spec"):
            canonical_fault_spec(42)

    def test_invalid_spec_propagates(self):
        with pytest.raises(ValueError):
            canonical_fault_spec("bogus:1")


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

    @given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 16))
    @settings(max_examples=50, deadline=None)
    def test_crash_leg_rederivation_is_byte_identical(self, seed, index):
        leg = CrashLeg(count=2, start_lo=1.0, start_hi=4.0, width=0.5)
        leg_seed = derive_seed("faults", seed, "crash", index)
        first = leg.materialise(SERVERS, np.random.default_rng(leg_seed))
        second = leg.materialise(SERVERS, np.random.default_rng(leg_seed))
        assert [(e.pid, e.time) for e in first] == [
            (e.pid, e.time) for e in second
        ]

    @given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 16))
    @settings(max_examples=50, deadline=None)
    def test_choose_legs_rederivation_is_identical(self, seed, index):
        withhold = WithholdLeg(short=1)
        partition = PartitionLeg(isolated=2)
        slow = SlowLeg(count=2)
        for leg, name in ((withhold, "withhold"), (partition, "partition"), (slow, "slow")):
            rng_a = np.random.default_rng(derive_seed("faults", seed, name, index))
            rng_b = np.random.default_rng(derive_seed("faults", seed, name, index))
            if name == "withhold":
                assert leg.choose(SERVERS, 4, rng_a) == leg.choose(SERVERS, 4, rng_b)
            else:
                assert leg.choose(SERVERS, rng_a) == leg.choose(SERVERS, rng_b)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_objects_draw_independent_victims(self, seed):
        # Epoch sharding re-derives per-object rngs; different objects must
        # not share a stream (else one shard's consumption would skew
        # another's draw).
        leg = PartitionLeg(isolated=2)
        picks = {
            leg.choose(
                SERVERS,
                np.random.default_rng(derive_seed("faults", seed, "partition", j)),
            )
            for j in range(16)
        }
        assert len(picks) > 1
