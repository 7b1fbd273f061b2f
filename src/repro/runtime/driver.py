"""The one driver layer under every ``run_*`` entry point.

A bare :class:`~repro.runtime.cluster.RegisterCluster` is the
one-hosted-object case of a
:class:`~repro.runtime.namespace.MultiRegisterCluster`: both put their
register objects on one :class:`~repro.sim.simulation.Simulation`, so the
parts of a run that only see *the simulation and the objects on it* exist
once, here:

* :func:`run_armed` — the run loop (event budget, truncation, finalizers);
* :func:`apply_fault_plan` — the fault-plan materialiser;
* :func:`value_source` — the written-value generator of both drivers.

The public methods on the two cluster classes are "apply faults, arm,
:func:`run_armed`".
"""

from __future__ import annotations

import itertools
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.config import RunConfig
from repro.sim.network import SlowDisk
from repro.sim.simulation import EventBudgetExceeded, Simulation

__all__ = ["apply_fault_plan", "run_armed", "value_source"]


def run_armed(
    sim: Simulation,
    armed: Sequence[Tuple[object, Callable[[], None]]],
    *,
    operations: int,
    max_events: Optional[int],
    label: str,
) -> int:
    """Run ``sim`` to quiescence under the armed drivers; return the
    number of events processed.

    ``armed`` holds the ``(stats, finalize)`` pairs of the drivers armed on
    the simulation (one per hosted object).  ``max_events=None`` takes the
    default budget, which scales with ``operations``.  A run that exhausts
    its budget is flagged loudly instead of masquerading as a completed
    one: every ``stats.truncated`` is set — the stats then describe a
    *prefix* of the requested run — and a ``RuntimeWarning`` names the
    ``label`` of the entry point.  The finalizers run either way.
    """
    budget = max_events if max_events is not None else max(
        10_000_000, operations * 2_000
    )
    events_before = sim.events_processed
    try:
        sim.run(max_events=budget)
    except EventBudgetExceeded:
        for stats, _ in armed:
            stats.truncated = True
        completed = sum(stats.completed for stats, _ in armed)
        warnings.warn(
            f"{label} run truncated: event budget of {budget} exhausted "
            f"after {completed}/{operations} completed operations",
            RuntimeWarning,
            stacklevel=3,  # past this function and its run_* caller
        )
    finally:
        for _, finalize in armed:
            finalize()
    return sim.events_processed - events_before


def value_source(
    cluster, rng: np.random.Generator, cfg: RunConfig, value_prefix: str
) -> Callable[[], bytes]:
    """The written values of one driver run, as a ``next_value()`` callable.

    Values are globally unique — ``{value_prefix}#{seq}|`` padded to
    ``cfg.value_size`` with bytes drawn from the driver's ``rng`` — and are
    generated ``cfg.warm_batch`` at a time (the draw order every committed
    artefact was produced with).  Each refill is offered to the cluster's
    shared encoder, which pre-encodes it in one batched call when the
    values are small enough to share one
    (:meth:`~repro.erasure.batch.CachedEncoder.warm`).

    The filler is the bytes ``rng.bytes(size)`` would return, and leaves
    the generator in the state it would leave.  ``Generator.bytes`` takes
    ``ceil(size / 4)`` words of the bit generator's uint32 stream — the
    pending half-word (``has_uint32`` / ``uinteger``) first, then each raw
    64-bit output low half first — and writes them little-endian; the
    filler draws those raw outputs itself with ``random_raw``, without
    ``bytes``' uint32 array, ``astype`` copy and slice, and copies them
    once, into the value (docs/perf.md, "Hash once, generate once", has
    the cost per size).  The pending half-word is read once when a refill
    starts, carried between its values in locals and written back once
    when it ends; nothing else draws from ``rng`` in between.  For ``size
    >= 1`` these are also the bytes and state of ``rng.integers(0, 256,
    size=size, dtype=np.uint8).tobytes()``, what every committed value
    stream was drawn with; ``tests/runtime/test_driver.py`` pins both
    equivalences.  No filler is drawn for a header that already fills the
    value.
    """
    queue: List[bytes] = []
    seq = itertools.count()
    bit_generator = rng.bit_generator
    random_raw = bit_generator.random_raw
    size = cfg.value_size

    def next_value() -> bytes:
        if not queue:
            state = bit_generator.state
            pending, word = state["has_uint32"], state["uinteger"]
            batch = []
            for _ in range(cfg.warm_batch):
                value = f"{value_prefix}#{next(seq)}|".encode()
                if size > len(value):
                    words = (size - len(value) + 3) // 4
                    if pending:
                        value += word.to_bytes(4, "little")
                        pending = 0
                        words -= 1
                    if words:
                        raw = random_raw((words + 1) // 2)
                        # Like ``next_uint32``: the last output's high half
                        # stays behind, pending only if it went unused.
                        pending, word = words & 1, int(raw[-1]) >> 32
                        value += raw.astype("<u8", copy=False).data.cast("B")[
                            : size - len(value)
                        ]
                    else:
                        value = value[:size]
                batch.append(value)
            state = bit_generator.state
            state["has_uint32"], state["uinteger"] = pending, word
            bit_generator.state = state
            cluster.warm_encode(batch)
            queue.extend(reversed(batch))
        return queue.pop()

    return next_value


def apply_fault_plan(
    sim: Simulation,
    hosted: Sequence[Tuple[int, object]],
    namespace_size: int,
    plan,
    seed: int,
):
    """Materialise a :class:`~repro.workloads.faults.FaultPlan` (or its
    spec string) on the register objects ``hosted`` on ``sim``.

    ``hosted`` pairs each cluster with its *global* object index in a
    logical namespace of ``namespace_size`` objects.  Every leg derives
    its rng per object from ``(seed, leg name, global index)`` via
    :func:`~repro.workloads.faults.fault_seed`, and the withhold leg draws
    its victim objects (``objects = 0`` hits all of them) over the logical
    namespace — so materialisation is a pure function of the seed, and a
    subset of a namespace sees exactly the faults its objects would see in
    the whole.

    Crash legs go through each object's own ``f``-budget check; the slow
    sets merge into one :class:`~repro.sim.network.SlowDisk` wrap of the
    delay model; all adversary windows merge into **one** composite on
    the shared network (valid because objects never exchange cross-object
    messages), extending any adversary already installed.  Returns the
    materialised ground truth as an
    :class:`~repro.workloads.faults.AppliedFaultPlan`.
    """
    # Imported here: only a run with a fault plan needs them.
    from repro.sim.adversary import (
        CompositeAdversary,
        DelayAdversary,
        PartitionAdversary,
        WithholdingAdversary,
    )
    from repro.workloads.faults import (
        AppliedFaultPlan,
        AppliedObjectFaults,
        FaultPlan,
        fault_seed,
        parse_faults,
    )

    if isinstance(plan, str):
        plan = parse_faults(plan)
    if not isinstance(plan, FaultPlan):
        raise TypeError(
            f"expected a FaultPlan or fault spec string, got {type(plan).__name__}"
        )
    if not plan:
        return AppliedFaultPlan(plan_spec=plan.spec())

    #: global index -> the AppliedObjectFaults fields its legs filled in.
    found: Dict[int, Dict[str, object]] = {gid: {} for gid, _ in hosted}
    network = sim.network
    adversaries = []

    if plan.crash is not None and plan.crash.count:
        for gid, obj in hosted:
            rng = np.random.default_rng(fault_seed(seed, "crash", gid))
            schedule = plan.crash.materialise(obj.server_ids, rng)
            obj.apply_crash_schedule(schedule)
            found[gid]["crashed"] = tuple((e.pid, e.time) for e in schedule)
    if plan.slow is not None and plan.slow.count:
        slow_union: List[object] = []
        for gid, obj in hosted:
            rng = np.random.default_rng(fault_seed(seed, "slow", gid))
            found[gid]["slow"] = chosen = plan.slow.choose(obj.server_ids, rng)
            slow_union.extend(chosen)
        network.delay_model = SlowDisk(
            network.delay_model,
            slow_union,
            extra=plan.slow.extra,
            jitter=plan.slow.jitter,
        )
    if plan.delay_adversary is not None:
        leg = plan.delay_adversary
        adversaries.append(
            DelayAdversary(factor=leg.factor, start=leg.start, end=leg.end)
        )
    if plan.withhold is not None:
        leg = plan.withhold
        if leg.objects and leg.objects < namespace_size:
            rng = np.random.default_rng(fault_seed(seed, "withhold-objects", 0))
            victims = set(
                int(i)
                for i in rng.choice(namespace_size, size=leg.objects, replace=False)
            )
        else:
            victims = set(range(namespace_size))
        window = (leg.start, leg.end)
        withheld_windows: Dict[object, tuple] = {}
        for gid, obj in hosted:
            if gid not in victims:
                continue
            rng = np.random.default_rng(fault_seed(seed, "withhold", gid))
            withheld = leg.choose(obj.server_ids, obj.code.k, rng)
            surviving = obj.n - len(withheld)
            found[gid].update(
                withheld=withheld,
                withhold_window=window,
                surviving_elements=surviving,
                below_k=surviving < obj.code.k,
            )
            withheld_windows.update((pid, window) for pid in withheld)
        adversaries.append(WithholdingAdversary(withheld_windows))
    if plan.partition is not None:
        leg = plan.partition
        window = (leg.start, leg.end)
        isolated_windows: Dict[object, tuple] = {}
        for gid, obj in hosted:
            rng = np.random.default_rng(fault_seed(seed, "partition", gid))
            isolated = leg.choose(obj.server_ids, rng)
            found[gid].update(isolated=isolated, partition_window=window)
            isolated_windows.update((pid, window) for pid in isolated)
        adversaries.append(PartitionAdversary(isolated_windows))
    if adversaries:
        if network._adversary is not None:
            adversaries = [network._adversary, *adversaries]
        network.install_adversary(
            adversaries[0] if len(adversaries) == 1 else CompositeAdversary(adversaries)
        )

    return AppliedFaultPlan(
        plan_spec=plan.spec(),
        objects=tuple(
            AppliedObjectFaults(object_index=gid, **found[gid]) for gid, _ in hosted
        ),
    )
