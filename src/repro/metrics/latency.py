"""Operation latency accounting (Section V-C).

The paper bounds the duration of a successful SODA write by ``5 * delta``
and of a read by ``6 * delta`` when every message is delivered within
``delta`` time units; experiment E5 reads the longest durations straight
off the recorded history.

:class:`LatencyHistogram` summarises the latencies of the open-loop
engine's streamed runs: an HDR-style log-bucketed histogram that reports
p50/p99/p999 and SLO attainment next to the exact count/mean/min/max, and
merges across shards and epochs (fleet mode aggregates per-shard
histograms the same way :mod:`repro.consistency.shardmerge` composes
verdicts).

An empty summary reports ``nan`` — "no completed operations" must not
render as "zero latency".  Use :func:`format_latency` wherever a latency
lands in a table; it renders the sentinel as ``-``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

__all__ = [
    "LatencyHistogram",
    "format_latency",
]

_NAN = float("nan")


def format_latency(value: Optional[float], *, precision: int = 3) -> str:
    """Render a latency for a table cell: ``-`` for the empty sentinels.

    ``None`` and ``nan`` both mean "no completed operations"; everything
    else is formatted with ``precision`` decimal places.
    """
    if value is None:
        return "-"
    number = float(value)
    if math.isnan(number):
        return "-"
    return f"{number:.{precision}f}"


class LatencyHistogram:
    """A bounded-memory log-bucketed (HDR-style) latency histogram.

    Values at or below ``floor`` land in bucket 0; above it, buckets grow
    geometrically with ``subbuckets`` buckets per factor-of-two, so the
    relative quantization error of any reported percentile is at most
    ``2**(1/(2*subbuckets)) - 1`` (about 1.1% at the default 32).  Memory
    is O(occupied buckets) — a few hundred ints for any run length —
    while ``count``/``total``/``min``/``max`` stay exact.

    Histograms with identical parameters merge associatively
    (:meth:`merge`), so per-epoch and per-shard histograms compose into
    fleet-wide percentiles, and :meth:`to_jsonable` is canonical for
    byte-identical artefacts.
    """

    DEFAULT_FLOOR = 1e-6
    DEFAULT_SUBBUCKETS = 32

    def __init__(
        self,
        *,
        floor: float = DEFAULT_FLOOR,
        subbuckets: int = DEFAULT_SUBBUCKETS,
    ) -> None:
        if not floor > 0:
            raise ValueError("histogram floor must be positive")
        if subbuckets < 1:
            raise ValueError("need at least one subbucket per octave")
        self.floor = float(floor)
        self.subbuckets = int(subbuckets)
        self._log_growth = math.log(2.0) / self.subbuckets
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording -------------------------------------------------------
    def _index(self, value: float) -> int:
        if value <= self.floor:
            return 0
        return 1 + int(math.log(value / self.floor) / self._log_growth)

    def _representative(self, index: int) -> float:
        if index == 0:
            return self.floor
        lower = self.floor * math.exp((index - 1) * self._log_growth)
        upper = self.floor * math.exp(index * self._log_growth)
        return math.sqrt(lower * upper)

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError("latency cannot be negative")
        index = self._index(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    # -- aggregate views -------------------------------------------------
    @property
    def min(self) -> float:
        return self._min if self.count else _NAN

    @property
    def max(self) -> float:
        return self._max if self.count else _NAN

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else _NAN

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100), nearest-rank on buckets.

        Returns the geometric midpoint of the bucket holding the target
        rank, clamped to the exact observed ``[min, max]`` so the extreme
        percentiles never overshoot the data.  ``nan`` when empty.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        if self.count == 0:
            return _NAN
        if p == 0.0:
            return self._min
        target = math.ceil(self.count * p / 100.0)
        cumulative = 0
        for index in sorted(self.counts):
            cumulative += self.counts[index]
            if cumulative >= target:
                return min(max(self._representative(index), self._min), self._max)
        return self._max

    def attainment(self, threshold: float) -> float:
        """The fraction of samples at or below ``threshold`` (SLO check).

        Exact up to one boundary bucket: full buckets below the
        threshold's bucket always count, and the boundary bucket counts
        iff its representative value meets the threshold.  ``nan`` when
        empty.
        """
        if self.count == 0:
            return _NAN
        boundary = self._index(threshold)
        covered = sum(c for i, c in self.counts.items() if i < boundary)
        at_boundary = self.counts.get(boundary, 0)
        if at_boundary and self._representative(boundary) <= threshold:
            covered += at_boundary
        return covered / self.count

    def summary(self) -> Dict[str, float]:
        """count/mean/min/max plus p50/p99/p999 in one dict."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
        }

    # -- composition -----------------------------------------------------
    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram in place (and return self).

        Both histograms must share ``floor`` and ``subbuckets`` — merging
        across bucket geometries would silently re-quantize.
        """
        if (other.floor, other.subbuckets) != (self.floor, self.subbuckets):
            raise ValueError(
                "cannot merge histograms with different bucket geometry "
                f"(floor {self.floor} / subbuckets {self.subbuckets} vs "
                f"floor {other.floor} / subbuckets {other.subbuckets})"
            )
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        if other.count:
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)
        return self

    def copy(self) -> "LatencyHistogram":
        fresh = LatencyHistogram(floor=self.floor, subbuckets=self.subbuckets)
        fresh.counts = dict(self.counts)
        fresh.count = self.count
        fresh.total = self.total
        fresh._min = self._min
        fresh._max = self._max
        return fresh

    # -- canonical serialization ----------------------------------------
    def to_jsonable(self) -> Dict[str, object]:
        """A canonical, JSON-safe dump (``nan``-free; sparse buckets)."""
        return {
            "floor": self.floor,
            "subbuckets": self.subbuckets,
            "count": self.count,
            "total": self.total,
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
            "buckets": {str(i): self.counts[i] for i in sorted(self.counts)},
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return self.to_jsonable() == other.to_jsonable()

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self.count}, "
            f"p50={format_latency(self.percentile(50.0))}, "
            f"p99={format_latency(self.percentile(99.0))})"
        )
