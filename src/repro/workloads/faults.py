"""Unified fault-injection plans: one composite, one spec string.

Fault injection used to be a grab-bag: :class:`~repro.sim.failures.CrashSchedule`
was built by hand per experiment, slow disks were injected by swapping the
network's delay model in place, and nothing adversarial existed at all.
:class:`FaultPlan` consolidates every failure model behind one composite of
independent *legs*:

* :class:`CrashLeg` — a correlated crash burst (``CrashSchedule.burst``);
* :class:`SlowLeg` — slow-disk latency injection (wraps the delay model in
  :class:`~repro.sim.network.SlowDisk`);
* :class:`DelayAdversaryLeg` — an adversary that stretches deliveries of the
  messages inside SODA's reader-registration window (the protocol's known
  razor edge, Section V of the paper);
* :class:`WithholdLeg` — servers that answer metadata but withhold their
  coded elements, leaving fewer than ``k`` elements reachable;
* :class:`PartitionLeg` — a seeded cut isolating part of the server set,
  healed after a fixed duration.

Each leg **materialises as a pure function of its own derived rng**:
:func:`~repro.sim.simulation.derive_seed` hashes ``("faults", base_seed,
leg name, object index)``, so two shards that re-derive the same seed
produce byte-identical schedules regardless of ``--jobs`` or worker count.
The materialised ground truth is recorded in :class:`AppliedFaultPlan` so
reports can score audit-read detections against what was actually injected.

``parse_faults`` is the CLI surface syntax (``--faults
"withhold:1:40:30;partition:2:10:12"``): :data:`FAULT_LEGS` is its grammar,
read by :mod:`repro.workloads.spec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.sim.failures import CrashSchedule
from repro.sim.network import ProcessId
from repro.workloads.spec import parse, render

__all__ = [
    "CrashLeg",
    "SlowLeg",
    "DelayAdversaryLeg",
    "WithholdLeg",
    "PartitionLeg",
    "FaultPlan",
    "FAULT_LEGS",
    "parse_faults",
    "canonical_fault_spec",
    "AppliedObjectFaults",
    "AppliedFaultPlan",
]


# ----------------------------------------------------------------------
# legs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrashLeg:
    """A correlated crash burst of ``count`` servers per object."""

    kind = "crash"
    count: int = 1
    start_lo: float = 0.0
    start_hi: float = 10.0
    width: float = 0.1

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("crash count cannot be negative")
        if not 0 <= self.start_lo <= self.start_hi:
            raise ValueError(
                f"require 0 <= start_lo <= start_hi, got "
                f"[{self.start_lo}, {self.start_hi}]"
            )
        if self.width < 0:
            raise ValueError("crash burst width must be non-negative")


    def materialise(
        self, server_ids: Sequence[ProcessId], rng: np.random.Generator
    ) -> CrashSchedule:
        return CrashSchedule.burst(
            server_ids,
            self.count,
            rng,
            start_range=(self.start_lo, self.start_hi),
            width=self.width,
        )


@dataclass(frozen=True)
class SlowLeg:
    """``count`` servers per object whose sends straggle by ``extra``."""

    kind = "slow"
    count: int = 1
    extra: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("slow server count cannot be negative")
        if self.extra < 0 or self.jitter < 0:
            raise ValueError("slow extra delay and jitter must be non-negative")


    def choose(
        self, server_ids: Sequence[ProcessId], rng: np.random.Generator
    ) -> Tuple[ProcessId, ...]:
        if self.count > len(server_ids):
            raise ValueError(
                f"cannot slow {self.count} of {len(server_ids)} servers"
            )
        chosen = rng.choice(len(server_ids), size=self.count, replace=False)
        return tuple(server_ids[int(i)] for i in sorted(chosen))


@dataclass(frozen=True)
class DelayAdversaryLeg:
    """Stretch deliveries of reader-registration-window messages."""

    kind = "delayadv"
    factor: float = 4.0
    start: float = 0.0
    duration: float = math.inf

    def __post_init__(self) -> None:
        if not self.factor >= 1.0:
            raise ValueError("delay adversary factor must be at least 1")
        if self.start < 0:
            raise ValueError("delay adversary start must be non-negative")
        if not self.duration > 0:
            raise ValueError("delay adversary duration must be positive")


    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class WithholdLeg:
    """Servers that withhold coded elements, leaving ``k - short`` reachable.

    ``(n - k) + short`` servers per affected object withhold their element
    relays during ``[start, start + duration)``; metadata traffic (write
    acks, read-get responses) still flows, so the failure is *silent* until
    a reader tries to accumulate ``k`` elements.  ``objects`` caps how many
    objects of a namespace are affected (0 = all of them).
    """

    kind = "withhold"
    short: int = 1
    start: float = 5.0
    duration: float = 20.0
    objects: int = 0

    def __post_init__(self) -> None:
        if self.short < 1:
            raise ValueError("withhold short must be at least 1")
        if self.start < 0:
            raise ValueError("withhold start must be non-negative")
        if not self.duration > 0:
            raise ValueError("withhold duration must be positive")
        if self.objects < 0:
            raise ValueError("withhold object count cannot be negative")


    @property
    def end(self) -> float:
        return self.start + self.duration

    def withheld_count(self, n: int, k: int) -> int:
        count = (n - k) + self.short
        if count > n:
            raise ValueError(
                f"withhold short={self.short} needs {count} withholding "
                f"servers but only {n} exist"
            )
        return count

    def choose(
        self, server_ids: Sequence[ProcessId], k: int, rng: np.random.Generator
    ) -> Tuple[ProcessId, ...]:
        count = self.withheld_count(len(server_ids), k)
        chosen = rng.choice(len(server_ids), size=count, replace=False)
        return tuple(server_ids[int(i)] for i in sorted(chosen))


@dataclass(frozen=True)
class PartitionLeg:
    """Isolate ``isolated`` servers per object along a seeded cut, then heal."""

    kind = "partition"
    isolated: int = 2
    start: float = 5.0
    duration: float = 10.0

    def __post_init__(self) -> None:
        if self.isolated < 1:
            raise ValueError("partition must isolate at least one server")
        if self.start < 0:
            raise ValueError("partition start must be non-negative")
        if not self.duration > 0:
            raise ValueError("partition duration must be positive")


    @property
    def end(self) -> float:
        return self.start + self.duration

    def choose(
        self, server_ids: Sequence[ProcessId], rng: np.random.Generator
    ) -> Tuple[ProcessId, ...]:
        if self.isolated > len(server_ids):
            raise ValueError(
                f"cannot isolate {self.isolated} of {len(server_ids)} servers"
            )
        chosen = rng.choice(len(server_ids), size=self.isolated, replace=False)
        return tuple(server_ids[int(i)] for i in sorted(chosen))


# ----------------------------------------------------------------------
# the composite
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """A composite of independent fault legs, each deriving its own rng.

    The plan itself is declarative; :meth:`repro.runtime.cluster.
    RegisterCluster.apply_fault_plan` and :meth:`repro.runtime.namespace.
    MultiRegisterCluster.apply_fault_plan` materialise it (both through
    :func:`repro.runtime.driver.apply_fault_plan`) against concrete server
    sets and record the outcome in an :class:`AppliedFaultPlan`.
    """

    crash: Optional[CrashLeg] = None
    slow: Optional[SlowLeg] = None
    delay_adversary: Optional[DelayAdversaryLeg] = None
    withhold: Optional[WithholdLeg] = None
    partition: Optional[PartitionLeg] = None

    def _legs(self) -> Tuple[object, ...]:
        """The legs present, in field order."""
        return tuple(filter(None, (getattr(self, f.name) for f in fields(self))))

    def __bool__(self) -> bool:
        return bool(self._legs())

    def spec(self) -> str:
        """Canonical surface form (inverse of :func:`parse_faults`)."""
        return ";".join(render(FAULT_LEGS, leg) for leg in self._legs()) or "none"


#: The fault-leg grammar, in :class:`FaultPlan` field order.
FAULT_LEGS = {
    leg.kind: leg
    for leg in (CrashLeg, SlowLeg, DelayAdversaryLeg, WithholdLeg, PartitionLeg)
}


def parse_faults(spec: str) -> FaultPlan:
    """Parse the CLI surface syntax for fault plans: ``none``, or
    ``;``-separated legs of :data:`FAULT_LEGS`, each at most once."""
    if spec.strip().lower() in ("", "none"):
        return FaultPlan()
    legs: Dict[str, object] = {}
    for fragment in filter(str.strip, spec.split(";")):
        leg = parse(FAULT_LEGS, fragment, "fault leg")
        if leg.kind in legs:
            raise ValueError(f"duplicate fault leg {leg.kind!r} in spec {spec!r}")
        legs[leg.kind] = leg
    return FaultPlan(*(legs.get(kind) for kind in FAULT_LEGS))


def canonical_fault_spec(faults: object) -> str:
    """Validate ``faults`` (a spec string or :class:`FaultPlan`) and return
    its canonical spec — the form analysis engines record in artefact
    params so every report reproduces from its own parameters."""
    plan = parse_faults(faults) if isinstance(faults, str) else faults
    if not isinstance(plan, FaultPlan):
        raise TypeError(
            f"expected a FaultPlan or fault spec string, got {type(faults).__name__}"
        )
    return plan.spec()


# ----------------------------------------------------------------------
# materialised ground truth
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AppliedObjectFaults:
    """What a fault plan actually injected into one object's server set."""

    object_index: int
    crashed: Tuple[Tuple[ProcessId, float], ...] = ()
    slow: Tuple[ProcessId, ...] = ()
    withheld: Tuple[ProcessId, ...] = ()
    withhold_window: Optional[Tuple[float, float]] = None
    surviving_elements: Optional[int] = None
    below_k: bool = False
    isolated: Tuple[ProcessId, ...] = ()
    partition_window: Optional[Tuple[float, float]] = None

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "object": self.object_index,
            "crashed": [[str(pid), t] for pid, t in self.crashed],
            "slow": [str(pid) for pid in self.slow],
            "withheld": [str(pid) for pid in self.withheld],
            "withhold_window": (
                list(self.withhold_window) if self.withhold_window else None
            ),
            "surviving_elements": self.surviving_elements,
            "below_k": self.below_k,
            "isolated": [str(pid) for pid in self.isolated],
            "partition_window": (
                list(self.partition_window) if self.partition_window else None
            ),
        }


@dataclass(frozen=True)
class AppliedFaultPlan:
    """The materialised fault plan across every object of a run."""

    plan_spec: str
    objects: Tuple[AppliedObjectFaults, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.objects)

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "spec": self.plan_spec,
            "objects": [obj.to_jsonable() for obj in self.objects],
        }
