"""Open-loop arrival processes.

The closed loop (:class:`repro.runtime.driver.ClosedLoop`) issues one
operation per client at a time, so offered load self-limits and latency
*tails* are unobservable.  The open loop
(:class:`repro.runtime.driver.OpenLoop`) instead takes an arrival
*schedule* of absolute invocation times, generated up front by one of the
processes in this module.

Four families cover the traffic shapes the ROADMAP names:

* :class:`PoissonArrivals` — homogeneous Poisson at a constant ``rate``
  (exponential inter-arrival gaps), the memoryless baseline;
* :class:`DiurnalArrivals` — an inhomogeneous Poisson process whose rate
  is sinusoid-modulated, ``rate * (1 + amplitude * sin(2*pi*t/period))``,
  generated by thinning against the peak rate (the day/night cycle);
* :class:`BurstArrivals` — an on/off MMPP-style process: exponential
  dwell times alternate between an ``on`` state (rate ``rate_on``) and an
  ``off`` state (rate ``rate_off``, possibly 0), producing bursty traffic
  with heavy inter-arrival tails;
* :class:`TraceArrivals` — replay of a recorded schedule, for feeding a
  measured trace back through the simulator.

Every process is a **pure function of its rng**: ``generate(rng, count)``
consumes a fixed draw pattern determined only by the parameters and
``count``, so two shards that derive the same per-epoch seed produce
byte-identical schedules regardless of ``--jobs``, worker count, or call
ordering — the same contract :mod:`repro.analysis.engine` relies on.

``parse_arrival`` is the CLI surface syntax (``--arrival poisson:4``):
:data:`ARRIVALS` is its grammar, read by :mod:`repro.workloads.spec`, and a
trace replays ``trace:t1,t2,...``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalArrivals",
    "BurstArrivals",
    "TraceArrivals",
    "ARRIVALS",
    "parse_arrival",
]


class ArrivalProcess(ABC):
    """A seeded generator of absolute arrival times.

    Subclasses are frozen dataclasses — picklable and hashable, so sweep
    grids can carry them across spawn-pool workers (or carry the
    :meth:`spec` string and re-parse, which is what the openloop engine
    does for canonical artefacts).
    """

    #: Short family name (``poisson`` / ``diurnal`` / ``burst`` / ``trace``).
    kind: str = ""

    @abstractmethod
    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` non-decreasing absolute arrival times starting near 0.

        Pure function of ``rng`` state: the draw pattern depends only on
        the process parameters and ``count``.
        """

    def spec(self) -> str:
        """The parseable surface form (inverse of :func:`parse_arrival`)."""
        # Imported here, as in parse_arrival: a launch that only generates
        # arrivals loads no grammar.
        from repro.workloads.spec import render

        return render(ARRIVALS, self)

    @abstractmethod
    def scaled(self, factor: float) -> "ArrivalProcess":
        """The same process with every rate multiplied by ``factor``.

        The namespace driver uses this to split a total arrival rate over
        objects by key popularity.
        """

    @staticmethod
    def _check_count(count: int) -> None:
        if count < 0:
            raise ValueError("count cannot be negative")

    @staticmethod
    def _check_factor(factor: float) -> None:
        if not factor > 0:
            raise ValueError("scale factor must be positive")


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate`` per simulated time unit."""

    rate: float = 1.0
    kind = "poisson"

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError("poisson rate must be positive")

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        self._check_count(count)
        if count == 0:
            return np.empty(0, dtype=np.float64)
        gaps = rng.exponential(1.0 / self.rate, size=count)
        return np.cumsum(gaps)

    def scaled(self, factor: float) -> "PoissonArrivals":
        self._check_factor(factor)
        return PoissonArrivals(rate=self.rate * factor)


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoid-modulated (inhomogeneous Poisson) arrivals.

    Instantaneous rate ``rate * (1 + amplitude * sin(2*pi*t/period))``
    with ``0 <= amplitude <= 1`` — the mean rate over a full period is
    ``rate``.  Generated by thinning candidates from a homogeneous
    process at the peak rate, which keeps the draw pattern a pure
    function of the rng (each candidate consumes exactly one gap draw
    and one acceptance draw).
    """

    rate: float = 1.0
    amplitude: float = 0.5
    period: float = 200.0
    kind = "diurnal"

    _CHUNK = 512

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError("diurnal rate must be positive")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("diurnal amplitude must be within [0, 1]")
        if not self.period > 0:
            raise ValueError("diurnal period must be positive")

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        self._check_count(count)
        times = np.empty(count, dtype=np.float64)
        if count == 0:
            return times
        peak = self.rate * (1.0 + self.amplitude)
        filled = 0
        t = 0.0
        while filled < count:
            chunk = max(self._CHUNK, count - filled)
            candidates = t + np.cumsum(rng.exponential(1.0 / peak, size=chunk))
            local = self.rate * (
                1.0
                + self.amplitude * np.sin(2.0 * np.pi * candidates / self.period)
            )
            accepted = candidates[rng.random(chunk) * peak < local]
            take = min(len(accepted), count - filled)
            times[filled : filled + take] = accepted[:take]
            filled += take
            t = float(candidates[-1])
        return times

    def scaled(self, factor: float) -> "DiurnalArrivals":
        self._check_factor(factor)
        return DiurnalArrivals(
            rate=self.rate * factor, amplitude=self.amplitude, period=self.period
        )


@dataclass(frozen=True)
class BurstArrivals(ArrivalProcess):
    """On/off MMPP-style bursty arrivals.

    The process alternates between an *on* state (Poisson at ``rate_on``
    for an exponential dwell with mean ``mean_on``) and an *off* state
    (Poisson at ``rate_off`` — 0 means silent — for mean ``mean_off``).
    Within each dwell the arrivals are memoryless, so regenerating fresh
    gaps at every state change is distribution-correct.
    """

    rate_on: float = 4.0
    rate_off: float = 0.0
    mean_on: float = 10.0
    mean_off: float = 30.0
    kind = "burst"

    _CHUNK = 64

    def __post_init__(self) -> None:
        if not self.rate_on > 0:
            raise ValueError("burst rate_on must be positive")
        if self.rate_off < 0:
            raise ValueError("burst rate_off cannot be negative")
        if not self.mean_on > 0 or not self.mean_off > 0:
            raise ValueError("burst dwell means must be positive")

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        self._check_count(count)
        times = np.empty(count, dtype=np.float64)
        if count == 0:
            return times
        filled = 0
        t = 0.0
        on = True
        while filled < count:
            dwell = float(rng.exponential(self.mean_on if on else self.mean_off))
            rate = self.rate_on if on else self.rate_off
            end = t + dwell
            if rate > 0:
                cursor = t
                while filled < count:
                    gaps = rng.exponential(1.0 / rate, size=self._CHUNK)
                    candidates = cursor + np.cumsum(gaps)
                    within = candidates[candidates <= end]
                    take = min(len(within), count - filled)
                    times[filled : filled + take] = within[:take]
                    filled += take
                    if len(within) < self._CHUNK:
                        break
                    cursor = float(candidates[-1])
            t = end
            on = not on
        return times

    def scaled(self, factor: float) -> "BurstArrivals":
        self._check_factor(factor)
        return BurstArrivals(
            rate_on=self.rate_on * factor,
            rate_off=self.rate_off * factor,
            mean_on=self.mean_on,
            mean_off=self.mean_off,
        )


@dataclass(frozen=True)
class TraceArrivals(ArrivalProcess):
    """Replay of a recorded arrival schedule.

    ``times`` must be non-negative and non-decreasing.  ``generate``
    consumes no randomness and returns the first ``count`` recorded
    times; asking for more arrivals than the trace holds is an error
    (there is nothing principled to extrapolate).
    """

    times: Tuple[float, ...] = ()
    kind = "trace"

    def __post_init__(self) -> None:
        previous = 0.0
        for t in self.times:
            if t < previous:
                raise ValueError(
                    "trace times must be non-negative and non-decreasing"
                )
            previous = t

    @classmethod
    def from_times(cls, times: Sequence[float]) -> "TraceArrivals":
        return cls(times=tuple(float(t) for t in times))

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        self._check_count(count)
        if count > len(self.times):
            raise ValueError(
                f"trace holds {len(self.times)} arrivals, {count} requested"
            )
        return np.asarray(self.times[:count], dtype=np.float64)

    def spec(self) -> str:
        return "trace:" + ",".join(f"{t:g}" for t in self.times)

    def scaled(self, factor: float) -> "ArrivalProcess":
        raise ValueError(
            "trace arrivals cannot be rescaled; use a synthetic arrival "
            "family (poisson/diurnal/burst) for namespace load splitting"
        )


#: The synthetic families' grammar; a trace is a comma list, parsed on its own.
ARRIVALS = {p.kind: p for p in (PoissonArrivals, DiurnalArrivals, BurstArrivals)}


def parse_arrival(spec: str) -> ArrivalProcess:
    """Parse the CLI surface syntax for arrival processes: a family of
    :data:`ARRIVALS`, or ``trace:t1,t2,...`` (comma-separated times)."""
    from repro.workloads.spec import forms, parse

    text = spec.strip()
    if text.lower().startswith("trace:"):
        parts = [p for p in text[len("trace:") :].split(",") if p.strip()]
        if not parts:
            raise ValueError(f"trace arrival spec holds no times: {spec!r}")
        try:
            times = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"invalid numeric field in trace {spec!r}") from None
        return TraceArrivals.from_times(times)
    if text.split(":")[0].lower() not in ARRIVALS:
        raise ValueError(
            f"unknown arrival process {spec!r}; expected {forms(ARRIVALS)} or "
            f"'trace:t1,t2,...'"
        )
    return parse(ARRIVALS, text, "arrival process")
