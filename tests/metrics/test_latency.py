"""Tests for latency formatting and the bounded-memory histogram."""

import math

import numpy as np
import pytest

from repro.metrics.latency import LatencyHistogram, format_latency


class TestFormatLatency:
    def test_renders_sentinels_as_dash(self):
        assert format_latency(None) == "-"
        assert format_latency(float("nan")) == "-"

    def test_renders_numbers(self):
        assert format_latency(2.4567) == "2.457"
        assert format_latency(2.4567, precision=1) == "2.5"
        assert format_latency(0.0) == "0.000"


class TestLatencyHistogram:
    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert math.isnan(hist.min)
        assert math.isnan(hist.max)
        assert math.isnan(hist.mean)
        assert math.isnan(hist.percentile(50.0))
        assert math.isnan(hist.attainment(1.0))

    def test_exact_count_mean_min_max(self):
        hist = LatencyHistogram()
        values = [0.5, 1.5, 2.25, 10.0]
        for v in values:
            hist.record(v)
        assert hist.count == 4
        assert hist.min == 0.5
        assert hist.max == 10.0
        assert hist.mean == pytest.approx(sum(values) / 4)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            LatencyHistogram().record(-1.0)

    def test_percentiles_cross_validate_against_numpy(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=1.0, sigma=0.7, size=50_000)
        hist = LatencyHistogram()
        for v in samples:
            hist.record(float(v))
        # Relative quantization error bound: 2**(1/(2*32)) - 1 ~ 1.1%;
        # allow a little slack for nearest-rank vs linear interpolation.
        for p in (50.0, 90.0, 99.0, 99.9):
            exact = float(np.percentile(samples, p))
            approx = hist.percentile(p)
            assert abs(approx - exact) / exact < 0.02, (p, exact, approx)

    def test_percentile_edges(self):
        hist = LatencyHistogram()
        for v in (1.0, 2.0, 3.0):
            hist.record(v)
        assert hist.percentile(0.0) == 1.0
        # p100 lands in max's bucket: representative within ~1.1%, clamped
        assert hist.percentile(100.0) == pytest.approx(3.0, rel=0.012)
        assert hist.percentile(100.0) <= 3.0
        with pytest.raises(ValueError, match="within"):
            hist.percentile(101.0)

    def test_tiny_values_land_in_floor_bucket(self):
        hist = LatencyHistogram()
        hist.record(0.0)
        hist.record(1e-9)
        assert hist.count == 2
        # Representative clamps to the observed [min, max] = [0, 1e-9].
        assert 0.0 <= hist.percentile(50.0) <= 1e-9

    def test_attainment(self):
        hist = LatencyHistogram()
        for v in (1.0, 2.0, 4.0, 8.0):
            hist.record(v)
        assert hist.attainment(0.5) == 0.0
        assert hist.attainment(5.0) == pytest.approx(0.75, abs=0.25 * 0.012)
        assert hist.attainment(100.0) == 1.0

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(1)
        samples = rng.exponential(2.0, size=5_000)
        whole = LatencyHistogram()
        left = LatencyHistogram()
        right = LatencyHistogram()
        for i, v in enumerate(samples):
            whole.record(float(v))
            (left if i % 2 == 0 else right).record(float(v))
        merged = left.copy().merge(right)
        # Buckets, count and extremes merge exactly; total is a float sum,
        # so it only matches up to summation order.
        assert merged.counts == whole.counts
        assert merged.count == whole.count
        assert merged.min == whole.min
        assert merged.max == whole.max
        assert merged.total == pytest.approx(whole.total)
        assert merged.percentile(99.0) == whole.percentile(99.0)
        assert merged.percentile(50.0) == whole.percentile(50.0)
        # merge() mutates the receiver but left the copy source intact
        assert left.count == sum(1 for i in range(len(samples)) if i % 2 == 0)

    def test_merge_rejects_mismatched_geometry(self):
        with pytest.raises(ValueError, match="bucket geometry"):
            LatencyHistogram().merge(LatencyHistogram(subbuckets=16))

    def test_jsonable_shape(self):
        hist = LatencyHistogram()
        for v in (0.1, 1.0, 1.0, 7.5):
            hist.record(v)
        payload = hist.to_jsonable()
        assert payload["count"] == 4
        assert all(isinstance(k, str) for k in payload["buckets"])

    def test_empty_jsonable(self):
        payload = LatencyHistogram().to_jsonable()
        assert payload["count"] == 0
        assert payload["min"] is None and payload["max"] is None

    def test_summary_keys(self):
        hist = LatencyHistogram()
        hist.record(3.0)
        summary = hist.summary()
        assert set(summary) == {"count", "mean", "min", "max", "p50", "p99", "p999"}
        assert summary["count"] == 1
        assert summary["p999"] == pytest.approx(3.0)
