"""What the one driver layer (``repro.runtime.driver``) relies on: a bare
cluster is the one-hosted-object namespace, a subset cluster is a view of
the monolithic one, and every knob goes through one validated record."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.registry import make_cluster
from repro.runtime.config import RunConfig
from repro.runtime.driver import value_source
from repro.runtime.namespace import MultiRegisterCluster
from repro.sim.network import SlowDisk
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.keyed import KeyDistribution

N, F = 6, 2

#: Multiplies the generated-case count of the filler property; the nightly
#: fuzz workflow (.github/workflows/nightly-fuzz.yml) sets it to 10.
FUZZ_FACTOR = int(os.environ.get("FUZZ_FACTOR", "1"))


def leg(name, *fields):
    """Spec fragments ``name:field:…`` over the given field strategies."""
    return st.tuples(*fields).map(lambda drawn: ":".join(map(str, (name, *drawn))))


LEGS = {
    "crash": leg("crash", st.integers(0, F), st.just(1), st.just(9)),
    "slow": leg("slow", st.integers(0, 3), st.sampled_from([1, 2.5])),
    "delayadv": leg("delayadv", st.sampled_from([2, 6]), st.just(1), st.just(20)),
    "withhold": leg("withhold", st.integers(1, 3), st.just(5), st.just(30)),
    "partition": leg("partition", st.integers(1, 3), st.just(4), st.just(12)),
}


@st.composite
def fault_specs(draw):
    names = draw(st.lists(st.sampled_from(sorted(LEGS)), min_size=1, unique=True))
    return ";".join(draw(LEGS[name]) for name in names)


def installed(sim):
    """What a fault plan left on the network, as plain data."""
    model = sim.network.delay_model
    slow = None
    if isinstance(model, SlowDisk):
        slow = (sorted(model.slow), model.extra, model.jitter)
    adversary = sim.network._adversary
    children = getattr(adversary, "children", (adversary,)) if adversary else ()
    return slow, [(type(child).__name__, vars(child)) for child in children]


def namespace(objects, **kwargs):
    return MultiRegisterCluster(
        "SODA", N, F, objects=objects, num_writers=2, num_readers=2, seed=7, **kwargs
    )


class TestBareClusterIsTheOneObjectNamespace:
    @settings(max_examples=40, deadline=None)
    @given(spec=fault_specs(), seed=st.integers(0, 2**32))
    def test_fault_plan_materialises_identically(self, spec, seed):
        bare = make_cluster("SODA", N, F, namespace="o0/")
        hosted = namespace(1)
        assert bare.apply_fault_plan(spec, seed=seed) == hosted.apply_fault_plan(
            spec, seed=seed
        )
        assert bare.applied_faults == hosted.applied_faults
        assert installed(bare.sim) == installed(hosted.sim)
        assert bare.failures.injected == hosted.object(0).failures.injected


class TestSubsetView:
    IDS = [1, 3]

    def pair(self):
        return namespace(2, object_ids=self.IDS, namespace_size=4), namespace(4)

    @pytest.mark.parametrize(
        "spec", ["crash:2", "slow:2", "withhold:1:5:30:2", "partition:2;delayadv"]
    )
    @pytest.mark.parametrize("seed", [0, 5])
    def test_fault_plan_is_the_monolithic_slice(self, spec, seed):
        subset, mono = self.pair()
        whole = mono.apply_fault_plan(spec, seed=seed).objects
        assert subset.apply_fault_plan(spec, seed=seed).objects == (whole[1], whole[3])

    def test_withhold_objects_hits_only_the_drawn_victims(self):
        _, mono = self.pair()
        applied = mono.apply_fault_plan("withhold:1:5:30:2", seed=0)
        assert sum(1 for obj in applied.objects if obj.withheld) == 2

    def test_closed_loop_budget_split_and_driver_seeds(self):
        """The shared clock makes the per-object counters differ; the
        budget split and the seeded value stream must not.  With no start
        window the first refill of written values is the driver rng's
        first draw."""
        runs = []
        for cluster in self.pair():
            stats = cluster.run_streamed(
                operations=120,
                key_dist=KeyDistribution.zipf(1.1),
                seed=3,
                value_size=48,
                start_window=0.0,
            )
            assert stats.completed == sum(stats.allocation)
            first_values = [
                min(w.value for w in obj.history.writes() if b"#0|" in w.value)
                for obj in cluster.objects
            ]
            runs.append((stats.allocation, first_values))
        (sub_alloc, sub_values), (mono_alloc, mono_values) = runs
        assert sub_alloc == [mono_alloc[g] for g in self.IDS]
        assert sub_values == [mono_values[g] for g in self.IDS]

    def test_open_loop_budget_split_and_driver_seeds(self):
        """At a rate nothing is rejected at, each object's read/write mix
        is a pure function of its driver seed and budget."""
        runs = []
        for cluster in self.pair():
            stats = cluster.run_open_loop(
                operations=160,
                arrival=PoissonArrivals(rate=0.5),
                key_dist=KeyDistribution.zipf(1.1),
                seed=3,
            )
            assert stats.completed == sum(stats.allocation)
            assert stats.rejected == 0
            runs.append(
                (stats.allocation, [(s.writes, s.reads) for s in stats.per_object])
            )
        (sub_alloc, sub_mix), (mono_alloc, mono_mix) = runs
        assert sub_alloc == [mono_alloc[g] for g in self.IDS]
        assert sub_mix == [mono_mix[g] for g in self.IDS]


def entry_points():
    """The four public ``run_*`` entry points, as ``call(**knobs)``."""
    arrival = PoissonArrivals(rate=1.0)
    for cluster in (make_cluster("SODA", N, F), namespace(2)):
        yield lambda c=cluster, **knobs: c.run_streamed(operations=4, **knobs)
        yield lambda c=cluster, **knobs: c.run_open_loop(
            operations=4, arrival=arrival, **knobs
        )


class TestKnobValidation:
    def test_unknown_knob_is_a_type_error(self):
        for call in entry_points():
            with pytest.raises(TypeError, match="warm_batches"):
                call(warm_batches=8)

    @pytest.mark.parametrize(
        "knobs, message",
        [
            (dict(value_size=0), "value_size must be at least 1"),
            (dict(warm_batch=0), "warm_batch must be at least 1"),
            (dict(mean_gap=-1.0), "must be non-negative"),
            (dict(start_window=-1.0), "must be non-negative"),
            (dict(read_fraction=1.5), r"read_fraction must be within \[0, 1\]"),
            (dict(policy="retry"), "unknown admission policy 'retry'"),
            (dict(queue_per_server=0), "queue_per_server must be at least 1"),
            (dict(op_timeout=0.0), "op_timeout must be positive"),
        ],
    )
    def test_every_rejection_surfaces_through_every_entry_point(self, knobs, message):
        for call in entry_points():
            with pytest.raises(ValueError, match=message):
                call(**knobs)

    def test_rejected_knobs_leave_the_cluster_untouched(self):
        cluster = make_cluster("SODA", N, F)
        with pytest.raises(ValueError):
            cluster.run_streamed(operations=4, faults="crash:1", value_size=0)
        assert cluster.failures.injected == []


class TestValueSource:
    """``value_source`` draws its filler from the bit generator's raw
    outputs; every committed value stream (goldens, ``results/*``) was drawn
    with ``rng.integers(0, 256, size, dtype=uint8).tobytes()``, and the
    filler claims to be ``rng.bytes(size)``.  All three must be the same
    bytes *and* leave the generator in the same state, for odd and even
    sizes alike, whatever half-word is pending when a refill starts."""

    class _NoWarm:
        @staticmethod
        def warm_encode(values):
            return 0

    @staticmethod
    def _legacy_values(rng, value_size, value_prefix, count):
        out = []
        for seq in range(count):
            header = f"{value_prefix}#{seq}|".encode()
            filler = b""
            if value_size > len(header):
                filler = rng.integers(
                    0, 256, size=value_size - len(header), dtype=np.uint8
                ).tobytes()
            out.append(header + filler)
        return out

    @settings(max_examples=120, deadline=None)
    @given(
        # Filler sizes 0 (the header alone fills a small value) to ~70,000.
        value_size=st.one_of(st.integers(1, 70_000), st.integers(1, 40)),
        seed=st.integers(0, 2**32),
        value_prefix=st.sampled_from(["", "o3/", "e12|"]),
    )
    def test_stream_and_successor_draw_match_the_legacy_generator(
        self, value_size, seed, value_prefix
    ):
        cfg = RunConfig(value_size=value_size, warm_batch=3)
        rng = np.random.default_rng(seed)
        next_value = value_source(self._NoWarm, rng, cfg, value_prefix)
        got = [next_value() for _ in range(3)]  # one whole refill

        legacy_rng = np.random.default_rng(seed)
        assert got == self._legacy_values(legacy_rng, value_size, value_prefix, 3)
        assert all(type(value) is bytes for value in got)
        # Same state afterwards: 64-bit, 32-bit (the half-word buffer) and
        # float draws all continue identically.
        assert rng.bit_generator.state == legacy_rng.bit_generator.state
        assert rng.integers(0, 2**63) == legacy_rng.integers(0, 2**63)
        assert rng.integers(0, 2**31, dtype=np.int32) == legacy_rng.integers(
            0, 2**31, dtype=np.int32
        )
        assert rng.exponential() == legacy_rng.exponential()

    @settings(max_examples=120 * FUZZ_FACTOR, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(
                # Fillers of 0-9 B behind the 4-5 B headers, and larger ones.
                st.one_of(st.integers(1, 14), st.integers(15, 70_000)),
                st.integers(1, 5),  # warm_batch
                st.booleans(),  # one uint32 draw first: a pending half-word
            ),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(0, 2**32),
    )
    def test_refills_match_rng_bytes_across_a_pending_half_word(self, runs, seed):
        """Two refills per source, sources of mixed sizes on one generator,
        each optionally entered with a half-word pending."""
        rng = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        for value_size, warm_batch, half_word in runs:
            if half_word:
                assert rng.integers(2**32, dtype=np.uint32) == reference.integers(
                    2**32, dtype=np.uint32
                )
            cfg = RunConfig(value_size=value_size, warm_batch=warm_batch)
            next_value = value_source(self._NoWarm, rng, cfg, "p")
            for seq in range(2 * warm_batch):
                header = f"p#{seq}|".encode()
                expected = header
                if value_size > len(header):
                    expected += reference.bytes(value_size - len(header))
                assert next_value() == expected
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_refills_are_warmed_in_issue_order(self):
        warmed = []

        class Recorder:
            @staticmethod
            def warm_encode(values):
                warmed.append(list(values))

        next_value = value_source(
            Recorder, np.random.default_rng(0), RunConfig(value_size=64, warm_batch=4), "p"
        )
        issued = [next_value() for _ in range(6)]
        assert [len(batch) for batch in warmed] == [4, 4]
        assert issued == (warmed[0] + warmed[1])[:6]
        assert all(len(value) == 64 and value.startswith(b"p#") for value in issued)
