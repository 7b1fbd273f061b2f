"""Tests for the open-loop arrival processes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.arrivals import (
    ArrivalProcess,
    BurstArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    TraceArrivals,
    parse_arrival,
)

ALL_SYNTHETIC = [
    PoissonArrivals(rate=2.0),
    DiurnalArrivals(rate=2.0, amplitude=0.8, period=50.0),
    BurstArrivals(rate_on=6.0, rate_off=0.5, mean_on=5.0, mean_off=15.0),
]


class TestContracts:
    @pytest.mark.parametrize("process", ALL_SYNTHETIC, ids=lambda p: p.kind)
    def test_exact_count_and_monotone(self, process):
        times = process.generate(np.random.default_rng(0), 500)
        assert times.shape == (500,)
        assert times.dtype == np.float64
        assert (times >= 0).all()
        assert (np.diff(times) >= 0).all()

    @pytest.mark.parametrize("process", ALL_SYNTHETIC, ids=lambda p: p.kind)
    def test_pure_function_of_rng(self, process):
        first = process.generate(np.random.default_rng(7), 300)
        second = process.generate(np.random.default_rng(7), 300)
        assert (first == second).all()

    @pytest.mark.parametrize("process", ALL_SYNTHETIC, ids=lambda p: p.kind)
    def test_different_seeds_differ(self, process):
        first = process.generate(np.random.default_rng(1), 100)
        second = process.generate(np.random.default_rng(2), 100)
        assert not (first == second).all()

    @pytest.mark.parametrize("process", ALL_SYNTHETIC, ids=lambda p: p.kind)
    def test_zero_count(self, process):
        times = process.generate(np.random.default_rng(0), 0)
        assert times.shape == (0,)

    @pytest.mark.parametrize("process", ALL_SYNTHETIC, ids=lambda p: p.kind)
    def test_negative_count_rejected(self, process):
        with pytest.raises(ValueError, match="count cannot be negative"):
            process.generate(np.random.default_rng(0), -1)

    @pytest.mark.parametrize("process", ALL_SYNTHETIC, ids=lambda p: p.kind)
    def test_shard_invariance(self, process):
        """Epochs with derived seeds are byte-identical however they are
        grouped — the contract the --jobs artefact gate relies on."""
        seeds = [11, 12, 13, 14]
        sequential = [
            process.generate(np.random.default_rng(s), 200).tobytes()
            for s in seeds
        ]
        shuffled = [
            process.generate(np.random.default_rng(s), 200).tobytes()
            for s in reversed(seeds)
        ]
        assert sequential == list(reversed(shuffled))

    @pytest.mark.parametrize("process", ALL_SYNTHETIC, ids=lambda p: p.kind)
    def test_scaled_speeds_up_arrivals(self, process):
        fast = process.scaled(4.0)
        base_end = process.generate(np.random.default_rng(3), 400)[-1]
        fast_end = fast.generate(np.random.default_rng(3), 400)[-1]
        assert fast_end < base_end

    @pytest.mark.parametrize("process", ALL_SYNTHETIC, ids=lambda p: p.kind)
    def test_scaled_rejects_nonpositive(self, process):
        with pytest.raises(ValueError, match="scale factor"):
            process.scaled(0.0)

    @pytest.mark.parametrize("process", ALL_SYNTHETIC, ids=lambda p: p.kind)
    def test_spec_round_trips(self, process):
        assert parse_arrival(process.spec()) == process


class TestPoisson:
    def test_mean_gap_tracks_rate(self):
        times = PoissonArrivals(rate=5.0).generate(np.random.default_rng(0), 20_000)
        assert np.diff(times).mean() == pytest.approx(1.0 / 5.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError, match="rate must be positive"):
            PoissonArrivals(rate=0.0)


class TestDiurnal:
    def test_peak_denser_than_trough(self):
        process = DiurnalArrivals(rate=4.0, amplitude=0.9, period=100.0)
        times = process.generate(np.random.default_rng(0), 50_000)
        phase = np.mod(times, 100.0)
        # Peak of sin(2*pi*t/period) is t=period/4, trough t=3*period/4.
        peak = ((phase > 15.0) & (phase < 35.0)).sum()
        trough = ((phase > 65.0) & (phase < 85.0)).sum()
        assert peak > 2 * trough

    def test_validation(self):
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalArrivals(amplitude=1.5)
        with pytest.raises(ValueError, match="period"):
            DiurnalArrivals(period=0.0)


class TestBurst:
    def test_silent_off_state_leaves_gaps(self):
        process = BurstArrivals(
            rate_on=10.0, rate_off=0.0, mean_on=5.0, mean_off=50.0
        )
        times = process.generate(np.random.default_rng(1), 2_000)
        gaps = np.diff(times)
        # Off dwells show up as gaps far beyond the on-state mean of 0.1.
        assert gaps.max() > 20 * gaps.mean()

    def test_validation(self):
        with pytest.raises(ValueError, match="rate_on"):
            BurstArrivals(rate_on=0.0)
        with pytest.raises(ValueError, match="rate_off"):
            BurstArrivals(rate_off=-1.0)
        with pytest.raises(ValueError, match="dwell"):
            BurstArrivals(mean_off=0.0)


class TestTrace:
    def test_replays_prefix_exactly(self):
        trace = TraceArrivals.from_times([0.0, 0.5, 0.5, 2.25])
        times = trace.generate(np.random.default_rng(0), 3)
        assert times.tolist() == [0.0, 0.5, 0.5]

    def test_consumes_no_randomness(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        TraceArrivals.from_times([1.0, 2.0]).generate(rng, 2)
        assert rng.bit_generator.state == before

    def test_overlength_request_rejected(self):
        trace = TraceArrivals.from_times([1.0, 2.0])
        with pytest.raises(ValueError, match="trace holds 2 arrivals"):
            trace.generate(np.random.default_rng(0), 3)

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            TraceArrivals.from_times([1.0, 0.5])
        with pytest.raises(ValueError, match="non-decreasing"):
            TraceArrivals.from_times([-1.0])

    def test_scaled_rejected(self):
        with pytest.raises(ValueError, match="cannot be rescaled"):
            TraceArrivals.from_times([1.0]).scaled(2.0)


class TestParse:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("poisson", PoissonArrivals(rate=1.0)),
            ("poisson:3.5", PoissonArrivals(rate=3.5)),
            ("  POISSON:2 ", PoissonArrivals(rate=2.0)),
            ("diurnal", DiurnalArrivals()),
            ("diurnal:2:0.25:60", DiurnalArrivals(2.0, 0.25, 60.0)),
            ("burst", BurstArrivals()),
            ("burst:8:1:5:20", BurstArrivals(8.0, 1.0, 5.0, 20.0)),
            ("trace:0,1.5,3", TraceArrivals.from_times([0.0, 1.5, 3.0])),
        ],
    )
    def test_valid_specs(self, spec, expected):
        assert parse_arrival(spec) == expected

    @pytest.mark.parametrize(
        "spec,match",
        [
            ("hotcold", "unknown arrival process"),
            ("poisson:1:2", "poisson process takes rate"),
            ("poisson:fast", "invalid numeric field"),
            ("diurnal:1:2:3:4", "rate:amplitude:period"),
            ("burst:1:2:3:4:5", "rate_on:rate_off"),
            ("trace:", "holds no times"),
            ("trace:a,b", "invalid numeric field"),
        ],
    )
    def test_invalid_specs(self, spec, match):
        with pytest.raises(ValueError, match=match):
            parse_arrival(spec)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["poisson", "diurnal", "burst"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=0, max_value=400),
)
def test_property_schedules_are_deterministic_and_sorted(kind, seed, count):
    process: ArrivalProcess = {
        "poisson": PoissonArrivals(rate=3.0),
        "diurnal": DiurnalArrivals(rate=3.0, amplitude=1.0, period=20.0),
        "burst": BurstArrivals(rate_on=5.0, rate_off=0.0, mean_on=3.0, mean_off=7.0),
    }[kind]
    first = process.generate(np.random.default_rng(seed), count)
    second = process.generate(np.random.default_rng(seed), count)
    assert first.shape == (count,)
    assert (first == second).all()
    assert (np.diff(first) >= 0).all()
