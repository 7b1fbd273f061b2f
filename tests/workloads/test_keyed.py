"""Tests for the keyed (multi-object) workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.keyed import (
    KeyDistribution,
    parse_key_dist,
    partition_objects,
    plan_objects,
)


class TestKeyDistribution:
    def test_uniform_probabilities(self):
        probs = KeyDistribution.uniform().probabilities(8)
        assert probs.shape == (8,)
        assert np.allclose(probs, 1.0 / 8)

    def test_zipf_probabilities_sum_to_one_and_decrease(self):
        probs = KeyDistribution.zipf(1.2).probabilities(16)
        assert probs.sum() == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert probs[0] > probs[-1]  # genuinely skewed

    def test_zipf_theta_zero_is_uniform(self):
        assert np.allclose(
            KeyDistribution.zipf(0.0).probabilities(5),
            KeyDistribution.uniform().probabilities(5),
        )

    def test_higher_theta_is_more_skewed(self):
        mild = KeyDistribution.zipf(0.5).probabilities(8)
        steep = KeyDistribution.zipf(2.0).probabilities(8)
        assert steep[0] > mild[0]
        assert steep[-1] < mild[-1]

    def test_single_object_degenerates(self):
        assert KeyDistribution.zipf(1.5).probabilities(1) == pytest.approx([1.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown key distribution kind"):
            KeyDistribution(kind="pareto")
        with pytest.raises(ValueError, match="non-negative"):
            KeyDistribution.zipf(-1.0)
        with pytest.raises(ValueError, match="at least one object"):
            KeyDistribution.uniform().probabilities(0)


class TestDeterminism:
    def test_allocate_sums_to_total_and_is_deterministic(self):
        dist = KeyDistribution.zipf(1.1)
        first = dist.allocate(10_000, 8, np.random.default_rng(42))
        second = dist.allocate(10_000, 8, np.random.default_rng(42))
        assert first == second
        assert sum(first) == 10_000
        assert len(first) == 8

    def test_different_seeds_differ(self):
        dist = KeyDistribution.zipf(1.1)
        first = dist.allocate(10_000, 8, np.random.default_rng(1))
        second = dist.allocate(10_000, 8, np.random.default_rng(2))
        assert first != second

    def test_allocation_tracks_skew(self):
        dist = KeyDistribution.zipf(2.0)
        counts = dist.allocate(50_000, 8, np.random.default_rng(0))
        assert counts[0] > counts[-1]
        assert counts[0] > 50_000 // 8  # hot key above the uniform share

    @settings(max_examples=120, deadline=None)
    @given(
        theta=st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False),
        ),
        objects=st.integers(min_value=1, max_value=64),
        total=st.integers(min_value=0, max_value=100_000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_allocate_sums_exactly_to_budget(self, theta, objects, total, seed):
        """Property: every operation lands on exactly one object, for
        adversarial skew/size combinations (multinomial, so no rounding
        drift can gain or lose budget)."""
        counts = KeyDistribution.zipf(theta).allocate(
            total, objects, np.random.default_rng(seed)
        )
        assert len(counts) == objects
        assert all(c >= 0 for c in counts)
        assert sum(counts) == total

    def test_sample_is_deterministic(self):
        dist = KeyDistribution.zipf(1.0)
        first = dist.sample(np.random.default_rng(5), 4, 100)
        second = dist.sample(np.random.default_rng(5), 4, 100)
        assert (first == second).all()
        assert set(first) <= {0, 1, 2, 3}


class TestObjectPlan:
    def test_plan_matches_the_monolithic_rng_sequence(self):
        """The plan consumes exactly the draws the namespace driver does:
        one allocate over all objects, then one 63-bit seed block."""
        dist = KeyDistribution.zipf(1.1)
        plan = plan_objects(dist, 10_000, 8, seed=42)
        rng = np.random.default_rng(42)
        assert list(plan.allocation) == dist.allocate(10_000, 8, rng)
        assert list(plan.object_seeds) == [
            int(s) for s in rng.integers(0, 2**63 - 1, size=8)
        ]

    @settings(max_examples=120, deadline=None)
    @given(
        theta=st.floats(min_value=0.0, max_value=10.0,
                        allow_nan=False, allow_infinity=False),
        objects=st.integers(min_value=1, max_value=48),
        total=st.integers(min_value=0, max_value=50_000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_plan_is_pure_and_sums_to_total(self, theta, objects, total, seed):
        """Property: the plan is a pure function of (dist, total, objects,
        seed) — the contract fleet byte-identity rests on — and its
        allocation loses no budget."""
        dist = KeyDistribution.zipf(theta)
        plan = plan_objects(dist, total, objects, seed)
        again = plan_objects(dist, total, objects, seed)
        assert plan == again
        assert sum(plan.allocation) == total
        assert plan.objects == objects
        assert len(plan.object_seeds) == objects
        assert len(set(plan.object_seeds)) == objects  # 63-bit draws collide ~never


class TestPartitionObjects:
    def test_lpt_splits_the_hot_key_away(self):
        bins = partition_objects(KeyDistribution.zipf(1.1), 8, 4)
        assert bins[0] == [0]  # hottest key gets a partition of its own
        assert sorted(g for bin_ in bins for g in bin_) == list(range(8))

    def test_more_partitions_than_objects_collapses(self):
        bins = partition_objects(KeyDistribution.uniform(), 3, 8)
        assert len(bins) == 3
        assert sorted(g for bin_ in bins for g in bin_) == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one object"):
            partition_objects(KeyDistribution.uniform(), 0, 2)
        with pytest.raises(ValueError, match="at least one partition"):
            partition_objects(KeyDistribution.uniform(), 2, 0)

    @settings(max_examples=120, deadline=None)
    @given(
        theta=st.floats(min_value=0.0, max_value=10.0,
                        allow_nan=False, allow_infinity=False),
        objects=st.integers(min_value=1, max_value=64),
        partitions=st.integers(min_value=1, max_value=64),
        total=st.integers(min_value=0, max_value=50_000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partitions_cover_the_allocation_exactly(
        self, theta, objects, partitions, total, seed
    ):
        """Property: every object lands in exactly one partition, every
        partition is non-empty and sorted, the split is deterministic,
        and the per-partition allocated shares sum exactly back to the
        monolithic allocation — no operation is gained or lost by
        partitioning, whatever the skew."""
        dist = KeyDistribution.zipf(theta)
        bins = partition_objects(dist, objects, partitions)
        assert bins == partition_objects(dist, objects, partitions)
        assert len(bins) == min(partitions, objects)
        assert all(bin_ for bin_ in bins)
        assert all(bin_ == sorted(bin_) for bin_ in bins)
        covered = sorted(g for bin_ in bins for g in bin_)
        assert covered == list(range(objects))
        plan = plan_objects(dist, total, objects, seed)
        assert (
            sum(plan.allocation[g] for bin_ in bins for g in bin_) == total
        )


class TestParse:
    @pytest.mark.parametrize(
        "spec,kind,theta",
        [
            ("uniform", "uniform", 0.0),
            ("zipf", "zipf", 1.0),
            ("zipf:0.9", "zipf", 0.9),
            ("ZIPF:1.25", "zipf", 1.25),
            ("  uniform ", "uniform", 0.0),
        ],
    )
    def test_valid_specs(self, spec, kind, theta):
        dist = parse_key_dist(spec)
        assert dist.kind == kind
        assert dist.theta == theta

    def test_round_trip(self):
        for spec in ("uniform", "zipf:1.1", "zipf:2"):
            assert parse_key_dist(parse_key_dist(spec).spec()) == parse_key_dist(spec)

    def test_invalid_specs(self):
        with pytest.raises(ValueError, match="unknown key distribution"):
            parse_key_dist("hotcold")
        with pytest.raises(ValueError, match="invalid numeric field zipf theta"):
            parse_key_dist("zipf:steep")

