"""Keyed (multi-object) workload generation.

The single-register workloads in :mod:`repro.workloads.generator` drive one
register; a production namespace serves *many* keys with skewed popularity.
This module supplies the key dimension:

* :class:`KeyDistribution` — which object each operation targets.  Two
  families cover the scenarios the ROADMAP names: ``uniform`` (every key
  equally likely) and ``zipf:theta`` (rank-based power law — object 0 is
  the hottest key, object 1 the second hottest, and so on, with skew
  exponent ``theta``; ``zipf:0`` degenerates to uniform).
* :func:`parse_key_dist` — the CLI surface syntax (``--key-dist zipf:1.1``).
* :meth:`KeyDistribution.allocate` — a deterministic multinomial split of a
  total operation budget over objects, which is how the closed-loop
  namespace driver (:meth:`repro.runtime.namespace.MultiRegisterCluster.run_streamed`)
  turns key popularity into per-object load.
* :func:`correlated_crash_schedule` — the correlated-key crash scenario:
  a crash burst aimed at the servers of the *hottest* keys, so failures
  land exactly where the load is (the adversarial case for a skewed
  namespace; uncorrelated crashes mostly hit cold keys nobody reads).

Everything is a pure function of its seed/rng, so keyed workloads shard
over worker processes without perturbing results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.sim.failures import CrashSchedule


@dataclass(frozen=True)
class KeyDistribution:
    """Popularity of the objects (keys) of a multi-register namespace.

    ``kind`` is ``"uniform"`` or ``"zipf"``; ``theta`` is the Zipf skew
    exponent (ignored for uniform).  Instances are picklable and hashable,
    so sweep grids can carry them across spawn-pool workers.
    """

    kind: str = "uniform"
    theta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "zipf"):
            raise ValueError(
                f"unknown key distribution kind {self.kind!r}; "
                f"expected 'uniform' or 'zipf'"
            )
        if self.theta < 0:
            raise ValueError("zipf theta must be non-negative")

    # -- constructors ----------------------------------------------------
    @classmethod
    def uniform(cls) -> "KeyDistribution":
        return cls(kind="uniform")

    @classmethod
    def zipf(cls, theta: float) -> "KeyDistribution":
        return cls(kind="zipf", theta=float(theta))

    # -- the distribution itself ----------------------------------------
    def probabilities(self, objects: int) -> np.ndarray:
        """Per-object probabilities, hottest first (object 0)."""
        if objects < 1:
            raise ValueError("need at least one object")
        if self.kind == "uniform" or self.theta == 0.0:
            return np.full(objects, 1.0 / objects)
        ranks = np.arange(1, objects + 1, dtype=np.float64)
        weights = ranks ** (-self.theta)
        return weights / weights.sum()

    def sample(
        self, rng: np.random.Generator, objects: int, size: int
    ) -> np.ndarray:
        """``size`` object indices drawn from the distribution."""
        if size < 0:
            raise ValueError("size cannot be negative")
        return rng.choice(objects, size=size, p=self.probabilities(objects))

    def allocate(
        self, total: int, objects: int, rng: np.random.Generator
    ) -> List[int]:
        """Split ``total`` operations over ``objects`` keys.

        One multinomial draw — deterministic given the rng state, sums to
        ``total`` exactly, and costs O(objects) however large the budget.
        """
        if total < 0:
            raise ValueError("total cannot be negative")
        counts = rng.multinomial(total, self.probabilities(objects))
        return [int(c) for c in counts]

    def spec(self) -> str:
        """The parseable surface form (inverse of :func:`parse_key_dist`)."""
        if self.kind == "uniform":
            return "uniform"
        return f"zipf:{self.theta:g}"


def parse_key_dist(spec: str) -> KeyDistribution:
    """Parse the CLI surface syntax: ``uniform`` or ``zipf:<theta>``.

    ``zipf`` alone defaults to the classic ``theta = 1``.
    """
    text = spec.strip().lower()
    if text == "uniform":
        return KeyDistribution.uniform()
    if text == "zipf":
        return KeyDistribution.zipf(1.0)
    if text.startswith("zipf:"):
        raw = text.split(":", 1)[1]
        try:
            theta = float(raw)
        except ValueError:
            raise ValueError(
                f"invalid zipf exponent {raw!r} in key distribution {spec!r}"
            ) from None
        return KeyDistribution.zipf(theta)
    raise ValueError(
        f"unknown key distribution {spec!r}; expected 'uniform', 'zipf' or "
        f"'zipf:<theta>'"
    )


@dataclass(frozen=True)
class ObjectPlan:
    """The deterministic per-object driver plan of a namespace run.

    One :func:`plan_objects` call captures everything a namespace driver
    draws *before* any object simulates: the multinomial operation split,
    one derived driver seed per object, and the per-object popularity
    shares.  Because the draw order is fixed (allocation first, then the
    seed block) and consumes the rng over the **whole** namespace size,
    the plan is a pure function of ``(dist, total, objects, seed)`` — a
    cluster serving any *subset* of the namespace's objects reproduces
    the identical plan and simply indexes its own rows.  That is the
    contract fleet mode's byte-identity rests on: partitioning the
    namespace across processes never perturbs any object's driver inputs.
    """

    total: int
    allocation: Tuple[int, ...]
    object_seeds: Tuple[int, ...]
    probabilities: Tuple[float, ...]

    @property
    def objects(self) -> int:
        return len(self.allocation)


def plan_objects(
    dist: KeyDistribution, total: int, objects: int, seed: int
) -> ObjectPlan:
    """Draw the namespace driver plan — exactly the rng sequence a
    :class:`repro.runtime.namespace.MultiRegisterCluster` run consumes
    (its closed and open loop share the one call): one multinomial
    :meth:`KeyDistribution.allocate` over all ``objects``, then one block
    of ``objects`` 63-bit driver seeds.
    ``probabilities`` rides along for open-loop arrival rescaling (it
    consumes no rng state)."""
    rng = np.random.default_rng(seed)
    allocation = dist.allocate(total, objects, rng)
    object_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=objects)]
    return ObjectPlan(
        total=total,
        allocation=tuple(allocation),
        object_seeds=tuple(object_seeds),
        probabilities=tuple(float(p) for p in dist.probabilities(objects)),
    )


def partition_objects(
    dist: KeyDistribution, objects: int, partitions: int
) -> List[List[int]]:
    """Split object indices into load-balanced partitions (LPT greedy).

    Objects are assigned hottest-first to the currently lightest
    partition (longest-processing-time heuristic on the popularity
    shares), so a Zipf-skewed namespace's hot key does not drag a cold
    key's partition along with it.  Deterministic: shares tie-break by
    lower object index, bins by lower bin index.  Returns
    ``min(partitions, objects)`` non-empty partitions, each sorted by
    object index.  The *assignment* is a scheduling choice only — fleet
    artefacts are byte-identical whichever partition simulates an object.
    """
    if objects < 1:
        raise ValueError("need at least one object")
    if partitions < 1:
        raise ValueError("need at least one partition")
    count = min(partitions, objects)
    shares = dist.probabilities(objects)
    order = sorted(range(objects), key=lambda j: (-shares[j], j))
    loads = [0.0] * count
    bins: List[List[int]] = [[] for _ in range(count)]
    for j in order:
        target = min(range(count), key=lambda p: (loads[p], p))
        bins[target].append(j)
        loads[target] += float(shares[j])
    return [sorted(bin_) for bin_ in bins]


def correlated_crash_schedule(
    dist: KeyDistribution,
    server_ids_by_object: Sequence[Sequence[object]],
    crashes_per_object: int,
    rng: np.random.Generator,
    *,
    at: float = 0.0,
    width: float = 1.0,
    hot_objects: int = 1,
) -> CrashSchedule:
    """A crash burst correlated with key popularity.

    Crashes ``crashes_per_object`` servers of each of the ``hot_objects``
    most popular keys (per ``dist`` ordering: object 0 is hottest), at
    times drawn uniformly from ``[at, at + width]``.  Keep
    ``crashes_per_object <= f`` so every targeted register stays within
    its protocol's fault budget — the namespace layer's
    ``apply_crash_schedule`` enforces it per object.
    """
    if crashes_per_object < 0:
        raise ValueError("crashes_per_object cannot be negative")
    if hot_objects < 0 or hot_objects > len(server_ids_by_object):
        raise ValueError(
            f"hot_objects must be within [0, {len(server_ids_by_object)}]"
        )
    order = np.argsort(-dist.probabilities(len(server_ids_by_object)), kind="stable")
    schedule = CrashSchedule()
    for obj in order[:hot_objects]:
        servers = list(server_ids_by_object[int(obj)])
        victims = rng.choice(
            len(servers), size=min(crashes_per_object, len(servers)), replace=False
        )
        for victim in sorted(int(v) for v in victims):
            schedule.add(servers[victim], at + float(rng.uniform(0.0, width)))
    return schedule
