"""The epoch engine's spawn pool, and the seed rule every experiment shares.

Every run of :mod:`repro.analysis.engine` — long runs, open-loop runs,
adversarial runs, fleet mode — has the same execution shape: a
deterministic grid of picklable payloads fans out over a ``spawn``
process pool, results stream back in *completion* order (so
post-processing pipelines against cells still simulating), and
order-sensitive consumers restore grid order with a buffered
next-expected cursor.  This module is that shape:

* :func:`iter_unordered` — the pool body (serial in-process for ``jobs=1``
  or single-payload grids, a ``spawn`` pool otherwise).  A worker that
  dies (SIGKILL, the OOM killer) ends the run with :class:`WorkerDied`
  naming the payloads that never finished, never a hang; a payload that
  raises re-raises in the parent with its index attached; a run that ends
  early (that, or ^C in the parent) terminates the workers still running;
* :func:`in_order` — the order-restoring cursor over ``(index, result)``
  pairs;
* :func:`resolve_workers` — the nested-pool guard: a pool worker does not
  fan out again, so a nested request (a fleet cell inside the epoch pool)
  degrades to serial execution with a loud :class:`RuntimeWarning` instead
  of multiplying the process count — results are byte-identical either
  way, only the parallelism is lost.

``spawn`` rather than ``fork`` everywhere, so workers start from a clean
interpreter on every platform (no inherited RNG or simulation state);
payload functions must be module-level to stay picklable.
"""

from __future__ import annotations

import multiprocessing
import signal
import warnings
from typing import Any, Callable, Dict, Iterable, Iterator, Sequence, Tuple



class WorkerDied(RuntimeError):
    """A pool worker process died before reporting: killed by a signal, the
    OOM killer or an ``os._exit``.  ``indices`` are the payloads that had not
    finished when the pool noticed; their results are lost.  ``cells`` names
    them, where the caller knows what they were."""

    def __init__(self, indices: Sequence[int], cells: Sequence[str] = ()) -> None:
        self.indices = tuple(indices)
        self.cells = tuple(cells)
        lost = ", ".join(self.cells) or f"payloads {list(self.indices)}"
        super().__init__(f"a pool worker died before reporting; {lost} did not finish")


def resolve_workers(requested: int, *, what: str = "worker processes") -> int:
    """Clamp a requested worker count to what this process may spawn.

    A pool worker (any process started by :mod:`multiprocessing`) does not
    fan out again: asking for ``N > 1`` workers from inside one warns
    loudly and returns 1 — the caller then runs its work serially, which
    is result-identical by construction in every engine here.
    """
    if requested < 1:
        raise ValueError(f"{what}: need at least one worker")
    if requested > 1 and multiprocessing.parent_process() is not None:
        warnings.warn(
            f"{what}: {requested} worker processes requested inside a "
            f"pool worker, which does not fan out again; degrading "
            f"to serial execution (results are identical, only slower)",
            RuntimeWarning,
            stacklevel=3,
        )
        return 1
    return requested


def iter_unordered(
    fn: Callable[[Any], Any], payloads: Sequence[Any], *, jobs: int = 1
) -> Iterator[Any]:
    """Yield ``fn(payload)`` for every payload, in completion order.

    ``jobs=1`` (or a single payload) runs in-process — no pool, no
    pickling — and yields in payload order; ``jobs>1`` shards the payloads
    over a ``spawn`` pool and yields as workers finish.  A ``jobs>1``
    request from inside a pool worker degrades to serial with a warning
    (see :func:`resolve_workers`).  A payload that raises re-raises here
    with ``payload_index`` set on the exception; a worker that dies raises
    :class:`WorkerDied`.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if jobs > 1:
        jobs = resolve_workers(jobs, what="pool jobs")
    return _iter_unordered(fn, list(payloads), jobs)


def _iter_unordered(
    fn: Callable[[Any], Any], payloads: list, jobs: int
) -> Iterator[Any]:
    """Generator body of :func:`iter_unordered` (validation stays
    fail-fast at the call site rather than deferring to first iteration)."""
    if jobs == 1 or len(payloads) <= 1:
        for index, payload in enumerate(payloads):
            try:
                result = fn(payload)
            except Exception as error:
                error.payload_index = index
                raise
            yield result
        return
    # Imported here: a serial run (``--jobs 1``) never builds a pool.
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    executor = ProcessPoolExecutor(
        max_workers=min(jobs, len(payloads)),
        mp_context=multiprocessing.get_context("spawn"),
        # A terminal's ^C reaches the whole process group; the parent alone
        # acts on it (below), so workers print no traceback of their own.
        initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        index_of = {executor.submit(fn, p): i for i, p in enumerate(payloads)}
        for future in as_completed(index_of):
            error = future.exception()
            if isinstance(error, BrokenProcessPool):
                lost = [i for f, i in index_of.items() if not f.done() or f.exception()]
                raise WorkerDied(lost) from error
            if error is not None:
                error.payload_index = index_of[future]
                raise error
            yield future.result()
    except BaseException:
        # Whatever ends the run early — ^C in the parent, a raising payload,
        # a consumer that stops — loses the results of the cells still
        # running, so their workers are terminated, not waited for.
        for process in list((executor._processes or {}).values()):
            process.terminate()
        raise
    finally:
        # Cancels what has not started and reaps the workers.
        executor.shutdown(wait=True, cancel_futures=True)


def max_rss_kb() -> int:
    """Peak resident-set size of the *current* process, in kilobytes.

    Called at the end of every epoch/cell payload so each pool worker
    reports its own high-water mark (the parent's gauge says nothing
    about its children).  Returns 0 where :mod:`resource` is unavailable;
    on macOS ``ru_maxrss`` is in bytes and is normalised to KB.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys

    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


def in_order(results: Iterable[Tuple[int, Any]]) -> Iterator[Any]:
    """Restore grid order over ``(index, result)`` pairs.

    The engines consume results with order-dependent folds (epoch offsets
    accumulate, histograms merge deterministically), while the pool yields
    in completion order; this cursor buffers out-of-order arrivals and
    yields each result exactly at its turn.  Indices must be the
    contiguous range ``0..N-1`` — a gap left at exhaustion (a worker that
    never reported) raises instead of silently dropping the tail.
    """
    buffered: Dict[int, Any] = {}
    next_index = 0
    for index, result in results:
        buffered[index] = result
        while next_index in buffered:
            yield buffered.pop(next_index)
            next_index += 1
    if buffered:
        raise RuntimeError(
            f"pool results left a gap at index {next_index} "
            f"(buffered: {sorted(buffered)}); a worker never reported"
        )
