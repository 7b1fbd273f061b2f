"""Unified fault-injection plans: one composite, one spec string.

:class:`FaultPlan` is a composite of independent *legs*, and each leg is
one class that holds all of its failure model — its spec fields and their
validation, its victim draw, the ground truth it records and, for the
message-level legs, the adversary it installs on the network's send path:

* :class:`CrashLeg` — a correlated crash burst (``CrashSchedule.burst``);
* :class:`SlowLeg` — slow-disk latency injection (wraps the delay model in
  :class:`~repro.sim.network.SlowDisk`);
* :class:`DelayAdversaryLeg` — an adversary that stretches deliveries of the
  messages inside SODA's reader-registration window (the protocol's known
  razor edge, Section V of the paper);
* :class:`WithholdLeg` — servers that answer metadata but withhold their
  coded elements, leaving fewer than ``k`` elements reachable
  (:class:`WithholdingAdversary`);
* :class:`PartitionLeg` — a seeded cut isolating part of the server set,
  healed after a fixed duration (:class:`PartitionAdversary`).

Each leg **materialises as a pure function of its own derived rng**:
:func:`~repro.sim.simulation.derive_seed` hashes ``("faults", base_seed,
leg name, object index)``, so two shards that re-derive the same seed
produce byte-identical schedules regardless of ``--jobs`` or worker count.
:meth:`FaultPlan.apply` records the materialised ground truth in an
:class:`AppliedFaultPlan` so reports can score audit-read detections
against what was actually injected.

An adversary sees each :class:`~repro.sim.network.MessageRecord` after the
delay model has drawn the nominal delay and before the delivery is
scheduled (:meth:`~repro.sim.network.Network.install_adversary`), and
returns the (possibly stretched) delay plus a drop verdict.  Adversaries
are deterministic functions of the message and the clock — they consume
no randomness of their own — so installing one never perturbs the rng
stream consumed by delay sampling.  They classify messages by type *name*
(outer payload, or the inner ``.payload`` of metadata envelopes), so this
module stays decoupled from the protocol message classes in
:mod:`repro.core`.

``parse_faults`` is the CLI surface syntax (``--faults
"withhold:1:40:30;partition:2:10:12"``): :data:`FAULT_LEGS` is its grammar,
read by :mod:`repro.workloads.spec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from repro.sim.failures import CrashSchedule
from repro.sim.network import MessageRecord, ProcessId, SlowDisk
from repro.sim.simulation import Simulation, derive_seed
from repro.workloads.spec import parse, render

__all__ = [
    "CrashLeg",
    "SlowLeg",
    "DelayAdversaryLeg",
    "WithholdLeg",
    "PartitionLeg",
    "WithholdingAdversary",
    "PartitionAdversary",
    "FaultPlan",
    "FAULT_LEGS",
    "parse_faults",
    "as_fault_plan",
    "AppliedObjectFaults",
    "AppliedFaultPlan",
    "REGISTRATION_WINDOW_MESSAGES",
    "ELEMENT_MESSAGES",
]

def _leg_rng(seed: int, leg: str, gid: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed("faults", seed, leg, gid))


def _draw(
    server_ids: Sequence[ProcessId], count: int, rng: np.random.Generator, verb: str
) -> Tuple[ProcessId, ...]:
    """``count`` distinct servers drawn by ``rng``, in ``server_ids`` order."""
    if count > len(server_ids):
        raise ValueError(f"cannot {verb} {count} of {len(server_ids)} servers")
    chosen = rng.choice(len(server_ids), size=count, replace=False)
    return tuple(server_ids[int(i)] for i in sorted(chosen))


def _carries(payload: object, names: FrozenSet[str]) -> bool:
    """Whether ``payload``'s type name, or for a metadata envelope its inner
    ``.payload``'s, is one of ``names``."""
    inner = getattr(payload, "payload", None)
    return type(payload).__name__ in names or (
        inner is not None and type(inner).__name__ in names
    )


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

    def materialise(self, sim, hosted, namespace_size, seed, found):
        """Arm a burst on every object, through the object's own
        ``f``-budget check."""
        if not self.count:
            return
        for gid, obj in hosted:
            schedule = CrashSchedule.burst(
                obj.server_ids,
                self.count,
                _leg_rng(seed, self.kind, gid),
                start_range=(self.start_lo, self.start_hi),
                width=self.width,
            )
            obj.apply_crash_schedule(schedule)
            found[gid]["crashed"] = tuple((e.pid, e.time) for e in schedule)


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

    def materialise(self, sim, hosted, namespace_size, seed, found):
        """Wrap the shared delay model in one :class:`SlowDisk` over every
        object's slow servers."""
        if not self.count:
            return
        slow = []
        for gid, obj in hosted:
            rng = _leg_rng(seed, self.kind, gid)
            found[gid]["slow"] = chosen = _draw(obj.server_ids, self.count, rng, "slow")
            slow.extend(chosen)
        network = sim.network
        network.delay_model = SlowDisk(
            network.delay_model, slow, extra=self.extra, jitter=self.jitter
        )


#: Message type names that carry SODA's reader-registration window: the
#: registration itself (READ-VALUE), the relayed coded elements, and the
#: read-complete unregistration.  Stretching these widens the window.
REGISTRATION_WINDOW_MESSAGES = frozenset(
    {"ReadValuePayload", "ReadCompletePayload", "ReadValueResponse"}
)


@dataclass(frozen=True)
class DelayAdversaryLeg:
    """Stretch deliveries of reader-registration-window messages.

    The leg is its own adversary: during ``[start, start + duration)`` it
    multiplies the delay of every :data:`REGISTRATION_WINDOW_MESSAGES`
    message by ``factor``, widening the window during which concurrent
    writes must be relayed to registered readers.
    """

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

    def materialise(self, sim, hosted, namespace_size, seed, found):
        """No victims to draw: the same messages stretch on every object."""
        return self

    def intervene(
        self, record: MessageRecord, delay: float, now: float
    ) -> Tuple[float, bool]:
        if self.start <= now < self.end and _carries(
            record.payload, REGISTRATION_WINDOW_MESSAGES
        ):
            return delay * self.factor, False
        return delay, False


#: Message type names that carry (or witness) coded elements.  A
#: withholding server suppresses exactly these: its element relays to
#: readers, its READ-DISPERSE bookkeeping to peers, and its replies to
#: availability-audit probes.  Metadata handshakes (write acks, read-get
#: responses) still flow, so the withholding is silent until a reader
#: tries to accumulate ``k`` elements.
ELEMENT_MESSAGES = frozenset(
    {"ReadValueResponse", "ReadDispersePayload", "AuditProbeResponse"}
)


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

    def materialise(self, sim, hosted, namespace_size, seed, found):
        """Draw the victim objects over the logical namespace, then each
        victim's withholding servers."""
        if self.objects and self.objects < namespace_size:
            rng = _leg_rng(seed, "withhold-objects", 0)
            drawn = rng.choice(namespace_size, size=self.objects, replace=False)
            victims = {int(i) for i in drawn}
        else:
            victims = range(namespace_size)
        withheld = set()
        for gid, obj in hosted:
            if gid not in victims:
                continue
            k = obj.code.k
            pids = _draw(
                obj.server_ids,
                self.withheld_count(len(obj.server_ids), k),
                _leg_rng(seed, self.kind, gid),
                "withhold",
            )
            surviving = obj.n - len(pids)
            found[gid].update(
                withheld=pids,
                withhold_window=(self.start, self.end),
                surviving_elements=surviving,
                below_k=surviving < k,
            )
            withheld.update(pids)
        return WithholdingAdversary(self, frozenset(withheld))


@dataclass(frozen=True)
class WithholdingAdversary:
    """Drop the :data:`ELEMENT_MESSAGES` the ``withheld`` servers send
    during the leg's window.

    Dropping the READ-DISPERSE bookkeeping alongside the element relays
    keeps readers registered at the healthy servers (the withholders never
    contribute toward the unregistration threshold), so a parked read
    completes once the window heals and the next write's elements are
    relayed.
    """

    leg: WithholdLeg
    withheld: FrozenSet[ProcessId]

    def intervene(
        self, record: MessageRecord, delay: float, now: float
    ) -> Tuple[float, bool]:
        leg = self.leg
        return delay, (
            record.src in self.withheld
            and leg.start <= now < leg.end
            and _carries(record.payload, ELEMENT_MESSAGES)
        )


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

    def materialise(self, sim, hosted, namespace_size, seed, found):
        """Draw each object's isolated servers."""
        isolated = set()
        for gid, obj in hosted:
            rng = _leg_rng(seed, self.kind, gid)
            pids = _draw(obj.server_ids, self.isolated, rng, "isolate")
            found[gid].update(isolated=pids, partition_window=(self.start, self.end))
            isolated.update(pids)
        return PartitionAdversary(self, frozenset(isolated))


@dataclass(frozen=True)
class PartitionAdversary:
    """Drop every message crossing the cut around the ``isolated`` servers
    during the leg's window.

    A message is dropped iff exactly one endpoint is isolated: traffic
    wholly inside the isolated group (or wholly outside it) still flows,
    which is what a network partition looks like.
    """

    leg: PartitionLeg
    isolated: FrozenSet[ProcessId]

    def intervene(
        self, record: MessageRecord, delay: float, now: float
    ) -> Tuple[float, bool]:
        cut = (record.src in self.isolated) != (record.dst in self.isolated)
        return delay, cut and self.leg.start <= now < self.leg.end


@dataclass(frozen=True)
class _Chain:
    """Adversaries in turn, each seeing the delay the one before left; the
    first drop wins."""

    children: Tuple[object, ...]

    def intervene(
        self, record: MessageRecord, delay: float, now: float
    ) -> Tuple[float, bool]:
        for child in self.children:
            delay, drop = child.intervene(record, delay, now)
            if drop:
                return delay, True
        return delay, False


# ----------------------------------------------------------------------
# the composite
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """A composite of independent fault legs, each deriving its own rng.

    The plan itself is declarative; :meth:`apply` materialises it against
    concrete server sets and records the outcome in an
    :class:`AppliedFaultPlan`.
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

    def apply(
        self,
        sim: Simulation,
        hosted: Sequence[Tuple[int, object]],
        namespace_size: int,
        seed: int,
    ) -> "AppliedFaultPlan":
        """Materialise the plan on the register objects ``hosted`` on ``sim``.

        ``hosted`` pairs each cluster with its *global* object index in a
        logical namespace of ``namespace_size`` objects.  Every leg derives
        its rng per object from ``("faults", seed, leg name, global index)``
        and the withhold leg draws its victim objects (``objects = 0`` hits
        all of them) over the logical namespace, so materialisation is a
        pure function of the seed, and a subset of a namespace sees exactly
        the faults its objects would see in the whole.

        The legs run in field order.  Their message adversaries chain, in
        that order, behind any adversary already installed, as **one**
        adversary on the shared network (valid because objects never
        exchange cross-object messages).  Returns the materialised ground
        truth.
        """
        if not self:
            return AppliedFaultPlan(plan_spec=self.spec())
        # Each leg's ``materialise`` draws its victims on every hosted
        # object, fills in its fields of ``found[gid]`` and returns its
        # message adversary, if it has one.
        found: Dict[int, Dict[str, object]] = {gid: {} for gid, _ in hosted}
        chain = [
            leg.materialise(sim, hosted, namespace_size, seed, found)
            for leg in self._legs()
        ]
        chain = [adversary for adversary in chain if adversary is not None]
        if chain:
            network = sim.network
            if network._adversary is not None:
                chain.insert(0, network._adversary)
            network.install_adversary(
                chain[0] if len(chain) == 1 else _Chain(tuple(chain))
            )
        return AppliedFaultPlan(
            plan_spec=self.spec(),
            objects=tuple(
                AppliedObjectFaults(object_index=gid, **found[gid]) for gid, _ in hosted
            ),
        )


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


def as_fault_plan(faults: object) -> FaultPlan:
    """``faults`` — a :class:`FaultPlan` or its spec string — as a validated
    plan.  Its :meth:`~FaultPlan.spec` is the canonical form analysis
    engines record in artefact params, so every report reproduces from its
    own parameters."""
    plan = parse_faults(faults) if isinstance(faults, str) else faults
    if not isinstance(plan, FaultPlan):
        raise TypeError(
            f"expected a FaultPlan or fault spec string, got {type(faults).__name__}"
        )
    return plan


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
