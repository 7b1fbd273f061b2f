"""Keyed (multi-object) workload generation.

The single-register workloads in :mod:`repro.workloads.scenarios` drive one
register; a production namespace serves *many* keys with skewed popularity.
This module supplies the key dimension:

* :class:`KeyDistribution` — which object each operation targets.  Two
  families cover the scenarios the ROADMAP names: ``uniform`` (every key
  equally likely) and ``zipf:theta`` (rank-based power law — object 0 is
  the hottest key, object 1 the second hottest, and so on, with skew
  exponent ``theta``; ``zipf:0`` degenerates to uniform).
* :func:`parse_key_dist` — the CLI surface syntax (``--key-dist zipf:1.1``),
  whose grammar is :data:`KEY_DISTS`.
* :meth:`KeyDistribution.allocate` — a deterministic multinomial split of a
  total operation budget over objects, which is how a namespace run
  (:meth:`repro.runtime.namespace.MultiRegisterCluster.run_streamed` /
  ``run_open_loop``) turns key popularity into per-object load, one
  :class:`~repro.runtime.driver.Driver` per object.

Everything is a pure function of its seed/rng, so keyed workloads shard
over worker processes without perturbing results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.workloads.spec import parse, render


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
    def zipf(cls, theta: float = 1.0) -> "KeyDistribution":
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
        return render(KEY_DISTS, self)


#: The key-distribution grammar; a bare ``zipf`` is the classic ``theta = 1``.
KEY_DISTS = {"uniform": KeyDistribution.uniform, "zipf": KeyDistribution.zipf}


def parse_key_dist(spec: str) -> KeyDistribution:
    """Parse the CLI surface syntax, a family of :data:`KEY_DISTS`."""
    return parse(KEY_DISTS, spec, "key distribution")


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

