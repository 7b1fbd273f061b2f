"""The sharded sweep engine: declarative parameter sweeps over processes.

Every headline claim of the paper (Theorems 5.3–5.7, 6.3) is a *sweep* —
storage/read/write cost or latency as one parameter (``f``, ``delta_w``,
``e``, Δ) varies — and every point of a sweep is an independent, seeded
simulation.  This module turns that shape into infrastructure:

* :class:`SweepSpec` declares a sweep as a picklable module-level *point
  function* plus a grid of per-point parameter mappings;
* each point gets a :class:`SweepPoint` with a seed *derived* from the
  sweep's base seed, name and point index (stable hashing), so results are
  reproducible and independent of how the points are scheduled;
* :func:`run_sweep` executes the points serially (``jobs=1``) or shards
  them across a spawn-based :mod:`multiprocessing` pool (``jobs=N``),
  collecting results in point order either way.

Because point functions are module-level (picklable under the ``spawn``
start method) and every point derives its own seed, a sweep's results are
**byte-identical for any jobs count** — the determinism tests assert it.

The experiment runners in :mod:`repro.analysis.experiments` are thin
wrappers that build a :class:`SweepSpec` and call :func:`run_sweep`; the
CLI exposes the registry in :mod:`repro.analysis.sweeps` via
``python -m repro.cli experiment sweep <name> --jobs N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Tuple

from repro.analysis.pool import iter_unordered
from repro.sim.simulation import seed_from_text


def derive_seed(base_seed: int, sweep_name: str, index: int) -> int:
    """A stable per-point seed: hash of (base seed, sweep name, point index).

    Derivation (rather than ``base_seed + index``) keeps points of
    different sweeps decorrelated even when their indices collide, and is
    identical on every platform and process, which is what makes sharded
    execution reproducible.
    """
    return seed_from_text(f"{base_seed}:{sweep_name}:{index}")


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: parameters plus its derived seed."""

    index: int
    params: Tuple[Tuple[str, Any], ...]
    seed: int

    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: ``fn(**params, seed=...)`` over a grid.

    Attributes
    ----------
    name:
        Sweep identifier; feeds seed derivation and progress output.
    fn:
        A *module-level* callable (picklable under spawn) invoked once per
        point as ``fn(**params, seed=point_seed)``.
    grid:
        One parameter mapping per point, in result order.
    base_seed:
        Root of the per-point seed derivation.
    description:
        Human-readable mapping to the paper (e.g. "E2: Theorem 5.3").
    """

    name: str
    fn: Callable[..., Any]
    grid: Tuple[Mapping[str, Any], ...]
    base_seed: int = 0
    description: str = ""

    def points(self) -> List[SweepPoint]:
        return [
            SweepPoint(
                index=i,
                params=tuple(sorted(params.items())),
                seed=derive_seed(self.base_seed, self.name, i),
            )
            for i, params in enumerate(self.grid)
        ]


def _run_point(payload: Tuple[Callable[..., Any], SweepPoint]) -> Tuple[int, Any]:
    """Worker entry: executes one point (module-level, hence spawn-safe)."""
    fn, point = payload
    return point.index, fn(**point.kwargs(), seed=point.seed)


def iter_sweep(spec: SweepSpec, *, jobs: int = 1) -> Iterator[Tuple[int, Any]]:
    """Yield ``(index, result)`` pairs as points finish.

    ``jobs=1`` runs in-process (no pool, no pickling) and yields in point
    order; ``jobs>1`` shards the points over a ``spawn`` multiprocessing
    pool — ``spawn`` rather than ``fork`` so workers start from a clean
    interpreter on every platform (no inherited RNG or simulation state)
    — and yields in *completion* order (``imap_unordered``), so consumers
    can pipeline per-point post-processing against points still
    simulating instead of barriering on the whole pool.  The index
    identifies each result; order-sensitive consumers restore point order
    with the buffered next-expected cursor
    :func:`repro.analysis.pool.in_order` or simply collect into a
    preallocated list (see :func:`run_sweep`).
    """
    payloads = [(spec.fn, point) for point in spec.points()]
    return iter_unordered(_run_point, payloads, jobs=jobs)


def run_sweep(spec: SweepSpec, *, jobs: int = 1) -> List[Any]:
    """Execute every point of ``spec`` and return results in point order.

    Thin collector over :func:`iter_sweep`: results arrive in completion
    order and are slotted by index, so the returned list is positionally
    aligned with ``spec.grid`` regardless of which worker ran which point
    — a sweep's results stay byte-identical for any jobs count.
    """
    results: List[Any] = [None] * len(spec.grid)
    for index, result in iter_sweep(spec, jobs=jobs):
        results[index] = result
    return results
