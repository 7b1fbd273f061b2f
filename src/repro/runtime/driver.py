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

import warnings
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.erasure.batch import pre_encodes
from repro.runtime.config import RunConfig
from repro.sim.network import SlowDisk
from repro.sim.simulation import EventBudgetExceeded, Simulation, derive_seed

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
    ``cfg.value_size`` with bytes drawn from the driver's ``rng`` — and
    take their place in ``rng``'s stream ``cfg.warm_batch`` at a time (the
    draw order every committed artefact was produced with): a refill is
    what the generator's stream holds at the first value's request, and the
    driver's later draws (think times, arrivals, the next refill) come after
    the whole refill, wherever in between its values are asked for.

    A refill is drawn by :func:`_refill` from a private clone of the bit
    generator, while ``rng`` itself jumps past it in one step.  *When* a
    value is drawn depends on whether the cluster pre-encodes it
    (:func:`~repro.erasure.batch.pre_encodes`, the question
    :meth:`~repro.erasure.batch.CachedEncoder.warm` asks): small values are
    drawn a whole refill at a time and handed to the cluster's shared
    encoder, which encodes them in one batched call; any other value is
    drawn when its writer asks for it, so a run holds no value before its
    write.  Both give the same bytes and leave ``rng`` in the same state.

    ``rng`` must be PCG64-backed (what ``np.random.default_rng`` builds):
    the jump is ``PCG64.advance``; any other bit generator is refused with a
    ``TypeError``.
    """
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        raise TypeError(
            "value_source jumps its generator with PCG64.advance; "
            f"got a {type(bit_generator).__name__} bit generator"
        )
    clone = np.random.PCG64(0)  # set to the driver's state at each refill
    size = cfg.value_size
    eager = pre_encodes(cluster.code, size)
    first = 0
    values: Iterator[bytes] = iter(())

    def next_value() -> bytes:
        nonlocal values, first
        value = next(values, None)
        if value is None:
            headers = [
                f"{value_prefix}#{seq}|".encode()
                for seq in range(first, first + cfg.warm_batch)
            ]
            first += cfg.warm_batch
            values = _refill(bit_generator, clone, headers, size)
            if eager:
                batch = list(values)
                cluster.warm_encode(batch)
                values = iter(batch)
            value = next(values)
        return value

    return next_value


def _refill(
    bit_generator: np.random.PCG64,
    clone: np.random.PCG64,
    headers: List[bytes],
    size: int,
) -> Iterator[bytes]:
    """Move ``bit_generator`` past one refill of values, then yield them.

    Each value is its header padded to ``size`` with the bytes
    ``Generator.bytes`` would return, leaving the state it would leave.
    ``Generator.bytes`` takes ``ceil(n / 4)`` words of the bit generator's
    uint32 stream — the pending half-word (``has_uint32`` / ``uinteger``)
    first, then each raw 64-bit output low half first — and writes them
    little-endian; for ``n >= 1`` these are also the bytes and state of
    ``rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()``, what every
    committed value stream was drawn with.  A header that already fills
    the value is the whole value, and draws nothing.

    The body runs to its first ``yield`` at the first ``next``: it counts
    the raw outputs the refill takes (and the half-word it leaves pending),
    sets ``clone`` to ``bit_generator``'s state and moves ``bit_generator``
    past them with ``advance(count - 1)`` and one last draw — the high half
    of that draw is the ``uinteger`` ``Generator.bytes`` leaves.  The values
    then come from ``clone``'s raw outputs, drawn with ``random_raw``
    without ``bytes``' uint32 array, ``astype`` copy and slice, and copied
    once, into the value (docs/perf.md, "Hash once, generate once").
    ``tests/runtime/test_driver.py`` pins the bytes and the state.
    """
    state = bit_generator.state
    pending = state["has_uint32"]
    plan = []  # per value: (header, takes the pending half-word, raw outputs)
    count = 0
    for header in headers:
        words = (size - len(header) + 3) // 4 if size > len(header) else 0
        takes = bool(pending and words)
        if takes:
            pending = 0
            words -= 1
        raws = (words + 1) // 2
        if raws:
            # Like ``next_uint32``: the last output's high half stays
            # behind, pending only if it went unused.
            pending = words & 1
            count += raws
        plan.append((header, takes, raws))

    clone.state = state
    word = state["uinteger"]
    if count:
        bit_generator.advance(count - 1)
        last = bit_generator.random_raw() >> 32
        state = bit_generator.state
        state["uinteger"] = last
    state["has_uint32"] = pending
    bit_generator.state = state

    random_raw = clone.random_raw
    for header, takes, raws in plan:
        value = header
        if takes:
            value += word.to_bytes(4, "little")[: size - len(value)]
        if raws:
            raw = random_raw(raws)
            word = int(raw[-1]) >> 32
            value += raw.astype("<u8", copy=False).data.cast("B")[: size - len(value)]
        yield value


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
    its rng per object from ``("faults", seed, leg name, global index)`` via
    :func:`~repro.sim.simulation.derive_seed`, and the withhold leg draws
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

    def leg_rng(leg: str, gid: int) -> np.random.Generator:
        return np.random.default_rng(derive_seed("faults", seed, leg, gid))

    #: global index -> the AppliedObjectFaults fields its legs filled in.
    found: Dict[int, Dict[str, object]] = {gid: {} for gid, _ in hosted}
    network = sim.network
    adversaries = []

    if plan.crash is not None and plan.crash.count:
        for gid, obj in hosted:
            rng = leg_rng("crash", gid)
            schedule = plan.crash.materialise(obj.server_ids, rng)
            obj.apply_crash_schedule(schedule)
            found[gid]["crashed"] = tuple((e.pid, e.time) for e in schedule)
    if plan.slow is not None and plan.slow.count:
        slow_union: List[object] = []
        for gid, obj in hosted:
            rng = leg_rng("slow", gid)
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
            rng = leg_rng("withhold-objects", 0)
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
            rng = leg_rng("withhold", gid)
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
            rng = leg_rng("partition", gid)
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
