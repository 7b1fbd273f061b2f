"""Multi-object register namespaces: many keys, one simulation.

The paper's protocols emulate a *single* atomic register; a production
namespace serves many keys.  Because atomicity is a per-register property,
the natural composition is N independent protocol instances — and because
contention, failures and load skew only interact through *time*, the
instances must share one clock.  :class:`MultiRegisterCluster` does exactly
that: it owns one :class:`~repro.sim.simulation.Simulation` (one event
queue, one delay model, one RNG) and instantiates one full protocol stack
per object under a pid namespace (object ``j``'s servers are ``o3/s0`` …,
its clients ``o3/w0`` / ``o3/r0`` …), so all objects' messages interleave
on the shared timeline exactly as traffic to different keys interleaves in
a real deployment.

Per-object protocol state stays fully isolated: each object has its own
servers, erasure coder, storage tracker, failure injector and history sink
(pass ``recorder_factory`` to give each object a bounded
:class:`~repro.consistency.stream.StreamingRecorder` with an incremental
checker subscribed — see :class:`repro.consistency.multiplex.ObjectCheckerMux`).
Communication cost accounting is shared (one network, one tracker) and
attributed per operation id, which stays unambiguous because operation ids
embed the namespaced client pid.

:meth:`MultiRegisterCluster.run_streamed` / ``run_open_loop`` drive the
whole namespace: a :class:`~repro.workloads.keyed.KeyDistribution` splits
the operation budget over objects (Zipf-skewed hot keys or uniform), each
object arms its own :class:`~repro.runtime.driver.Driver` (closed- or
open-loop), and one shared simulation run
(:func:`repro.runtime.driver.run_armed`) drives them all concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.baselines.registry import make_cluster
from repro.consistency.history import OperationRecord
from repro.consistency.stream import HistorySink
from repro.metrics.costs import CommunicationCostTracker
from repro.metrics.latency import LatencyHistogram
from repro.runtime.cluster import RegisterCluster
from repro.runtime.config import RunConfig
from repro.runtime.driver import ClosedLoop, OpenLoop, RunStats, run_armed
from repro.sim.network import DelayModel
from repro.sim.simulation import Simulation
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.keyed import KeyDistribution, plan_objects


def object_namespace(index: int) -> str:
    """The pid prefix of object ``index`` (``"o3/"``)."""
    return f"o{index}/"


#: Per-object counters that add up to a namespace-wide count.
_ADDITIVE = frozenset(
    "arrived admitted issued completed failed rejected shed_reads timed_out "
    "writes reads queued_at_end stall_time".split()
)


@dataclass
class NamespaceStats:
    """Outcome of one namespace-wide run, closed- or open-loop.

    ``per_object`` holds the hosted objects' own
    :class:`~repro.runtime.driver.RunStats` and ``allocation`` their shares
    of the multinomial budget split.  Every additive
    per-object counter (``completed``, ``rejected``, ``stall_time`` …)
    reads here as its sum; the open loop's latency histograms and samples
    read as their merge, always folded in object order, so they are
    deterministic.
    """

    requested: int
    per_object: List[RunStats] = field(default_factory=list)
    end_time: float = 0.0
    events: int = 0

    def __getattr__(self, counter: str):
        # Reached only for names that are not fields or properties.
        if counter not in _ADDITIVE:
            raise AttributeError(counter)
        return sum(getattr(own, counter) for own in self.per_object)

    @property
    def allocation(self) -> List[int]:
        return [own.requested for own in self.per_object]

    @property
    def truncated(self) -> bool:
        """True when the shared run exhausted its event budget — every
        object's stats then describe a prefix, not a completed run."""
        return any(own.truncated for own in self.per_object)

    def _merged(self, histogram: str) -> LatencyHistogram:
        merged = LatencyHistogram()
        for own in self.per_object:
            merged.merge(getattr(own, histogram))
        return merged

    @property
    def read_latency(self) -> LatencyHistogram:
        return self._merged("read_latency")

    @property
    def write_latency(self) -> LatencyHistogram:
        return self._merged("write_latency")

    def latency(self) -> LatencyHistogram:
        return self.read_latency.merge(self.write_latency)

    @property
    def samples(self) -> Optional[Dict[str, List[float]]]:
        kept = [own.samples for own in self.per_object if own.samples is not None]
        if not kept:
            return None
        return {kind: [x for s in kept for x in s[kind]] for kind in ("read", "write")}


class MultiRegisterCluster:
    """N independent atomic registers multiplexed over one simulation.

    Parameters mirror :class:`~repro.runtime.cluster.RegisterCluster`; the
    extra ones are ``objects`` (how many registers this cluster hosts),
    ``recorder_factory`` (``obj_index -> HistorySink`` so each object can
    record through its own bounded sink) and ``protocol_kwargs``
    (protocol-specific constructor arguments such as CASGC's ``delta``,
    applied to every object).

    ``object_ids`` / ``namespace_size`` make the cluster a *subset view*
    of a larger logical namespace: the hosted registers carry the given
    global indices (pid namespaces, fault-leg seed derivations and driver
    plans all use the global index), while allocation and fault-victim
    draws consume their rng over ``namespace_size`` — so a fleet of
    subset clusters, each simulating a slice of the namespace, reproduces
    exactly the per-object inputs of the monolithic cluster.  Both
    default to the hosted count, which is byte-identical to the
    pre-subset behaviour.
    """

    def __init__(
        self,
        protocol: str,
        n: int,
        f: int,
        *,
        objects: int,
        num_writers: int = 1,
        num_readers: int = 1,
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        initial_value: bytes = b"",
        keep_message_trace: bool = False,
        recorder_factory=None,
        protocol_kwargs: Optional[Dict[str, object]] = None,
        object_ids: Optional[Sequence[int]] = None,
        namespace_size: Optional[int] = None,
    ) -> None:
        if objects < 1:
            raise ValueError("need at least one object")
        if object_ids is None:
            ids = list(range(objects))
        else:
            ids = [int(g) for g in object_ids]
            if len(ids) != objects:
                raise ValueError(
                    f"object_ids names {len(ids)} objects, expected {objects}"
                )
            if len(set(ids)) != len(ids):
                raise ValueError("object_ids must be distinct")
        size = (
            int(namespace_size)
            if namespace_size is not None
            else (max(ids) + 1 if ids else objects)
        )
        if any(g < 0 or g >= size for g in ids):
            raise ValueError(
                f"object_ids must lie within [0, {size}) (namespace_size)"
            )
        self.object_ids: List[int] = ids
        self.namespace_size = size
        self.protocol = protocol
        self.n = n
        self.f = f
        self.sim = Simulation(
            seed=seed, delay_model=delay_model, keep_message_trace=keep_message_trace
        )
        self.costs = CommunicationCostTracker().attach(self.sim.network)
        self.objects: List[RegisterCluster] = []
        for j, gid in enumerate(ids):
            recorder: Optional[HistorySink] = (
                recorder_factory(j) if recorder_factory is not None else None
            )
            self.objects.append(
                make_cluster(
                    protocol,
                    n,
                    f,
                    num_writers=num_writers,
                    num_readers=num_readers,
                    initial_value=initial_value,
                    recorder=recorder,
                    sim=self.sim,
                    namespace=object_namespace(gid),
                    costs=self.costs,
                    **dict(protocol_kwargs or {}),
                )
            )
        self.protocol_name = self.objects[0].protocol_name

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.objects)

    def object(self, index: int) -> RegisterCluster:
        """The protocol instance serving object ``index``."""
        return self.objects[index]

    # ------------------------------------------------------------------
    # blocking operations (shared clock: other objects progress too)
    # ------------------------------------------------------------------
    def write(
        self, index: int, value: bytes, writer: Union[int, str] = 0
    ) -> OperationRecord:
        return self.object(index).write(value, writer)

    def read(self, index: int, reader: Union[int, str] = 0) -> OperationRecord:
        return self.object(index).read(reader)

    def run(self, *, max_events: int = 10_000_000) -> None:
        """Run the shared simulation to quiescence."""
        self.sim.run(max_events=max_events)

    # ------------------------------------------------------------------
    # closed- and open-loop runs over the whole namespace
    # ------------------------------------------------------------------
    def run_streamed(
        self,
        *,
        operations: int,
        key_dist: Optional[KeyDistribution] = None,
        seed: int = 0,
        value_prefix: str = "",
        max_events: Optional[int] = None,
        **knobs,
    ) -> NamespaceStats:
        """Drive ``operations`` keyed client operations through the
        namespace in one shared simulation run.

        The budget is split over objects by one deterministic multinomial
        draw from ``key_dist`` (uniform by default); each object runs its
        own closed loop, with a derived seed and the value prefix
        ``{value_prefix}o{j}|``, on the shared clock.  Everything derives
        from ``seed``, so the run is reproducible event-for-event for any
        shard fan-out.  ``knobs`` are those of
        :meth:`RegisterCluster.run_streamed
        <repro.runtime.cluster.RegisterCluster.run_streamed>`; a fault plan
        applies namespace-wide (:meth:`apply_fault_plan`), before the run.
        """
        return self._run(
            "namespace streamed", ClosedLoop, operations, key_dist, seed,
            value_prefix, max_events, knobs,
        )

    def run_open_loop(
        self,
        *,
        operations: int,
        arrival: ArrivalProcess,
        key_dist: Optional[KeyDistribution] = None,
        seed: int = 0,
        value_prefix: str = "",
        max_events: Optional[int] = None,
        **knobs,
    ) -> NamespaceStats:
        """Drive ``operations`` open-loop arrivals through the namespace.

        As :meth:`run_streamed`, with one open loop per object whose
        arrival process is ``arrival`` rescaled by the object's popularity
        (:meth:`~repro.workloads.arrivals.ArrivalProcess.scaled`), so the
        namespace-wide offered rate matches ``arrival`` while the hot key
        sees proportionally more traffic; trace arrivals cannot be
        rescaled and raise ``ValueError``.  ``knobs`` are those of
        :meth:`RegisterCluster.run_open_loop
        <repro.runtime.cluster.RegisterCluster.run_open_loop>`.
        """
        return self._run(
            "namespace open-loop", OpenLoop, operations, key_dist, seed,
            value_prefix, max_events, knobs, arrival,
        )

    def _run(
        self, label, policy, operations, key_dist, seed, value_prefix, max_events,
        knobs, arrival: Optional[ArrivalProcess] = None,
    ) -> NamespaceStats:
        """Split the budget, arm one ``policy`` driver per hosted object and
        run them all on the shared simulation."""
        cfg = RunConfig(**knobs)
        if operations < 0:
            raise ValueError("operations cannot be negative")
        dist = key_dist if key_dist is not None else KeyDistribution.uniform()
        # Drawn over the whole logical namespace, so a subset cluster
        # reproduces the monolithic per-object budgets, arrival shares
        # and driver seeds.
        plan = plan_objects(dist, operations, self.namespace_size, seed)
        drivers = []
        for gid, obj in zip(self.object_ids, self.objects):
            run = dict(
                operations=plan.allocation[gid],
                seed=plan.object_seeds[gid],
                value_prefix=f"{value_prefix}o{gid}|",
            )
            if arrival is not None:
                run["arrival"] = arrival.scaled(plan.probabilities[gid])
            drivers.append(policy(obj, cfg, **run))
        stats = NamespaceStats(operations, per_object=[d.stats for d in drivers])
        stats.events = run_armed(
            self.sim, drivers, operations=operations, max_events=max_events, label=label
        )
        stats.end_time = self.sim.now
        return stats

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def crash_server(self, index: int, which: Union[int, str], at_time: float) -> None:
        self.object(index).crash_server(which, at_time)

    def apply_fault_plan(self, plan, *, seed: int = 0):
        """Materialise a :class:`~repro.workloads.faults.FaultPlan` (or its
        spec string) on the whole namespace
        (:meth:`~repro.workloads.faults.FaultPlan.apply` documents the legs).

        Every per-object rng derives from the object's *global* index and
        the withhold victim draw runs over the *logical* namespace size,
        so a subset cluster materialises exactly the faults its objects
        would see in the monolithic namespace.  Returns the
        :class:`~repro.workloads.faults.AppliedFaultPlan` ground truth.
        """
        # Imported here: only a run with a fault plan loads the legs.
        from repro.workloads.faults import as_fault_plan

        hosted = list(zip(self.object_ids, self.objects))
        return as_fault_plan(plan).apply(self.sim, hosted, self.namespace_size, seed)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def operation_cost(self, op_id: str) -> float:
        """Communication cost of any operation, whichever object served it
        (operation ids embed the namespaced client pid)."""
        return self.costs.cost_of(op_id)

    def storage_peak(self) -> float:
        """Sum of per-object storage peaks (the objects' peaks need not be
        simultaneous, so this is the worst-case provisioning bound)."""
        return sum(obj.storage_peak() for obj in self.objects)

    def codec_stats(self) -> Dict[str, int]:
        """Namespace-wide codec counters: the per-object
        :meth:`~repro.runtime.cluster.RegisterCluster.codec_stats` summed
        key-wise (every object runs the same protocol, so the objects
        expose the same keys)."""
        totals: Dict[str, int] = {}
        for obj in self.objects:
            for key, count in obj.codec_stats().items():
                totals[key] = totals.get(key, 0) + count
        return totals

    def max_resident_records(self) -> int:
        """Peak resident records over the objects' bounded recorders (0 if
        an object records through a plain in-memory History)."""
        return max(
            (
                getattr(obj.history, "max_resident", 0)
                for obj in self.objects
            ),
            default=0,
        )
