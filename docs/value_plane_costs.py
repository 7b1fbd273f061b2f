"""The value plane of a write, timed per call and counted per operation.

    PYTHONPATH=src python docs/value_plane_costs.py

Prints the two tables of docs/perf.md, "Hash once, generate once":

* microseconds per call against value size — the checker's digest
  (BLAKE2b-128 against SHA-256 cut to 16 bytes) and the driver's written
  values (a header plus ``rng.bytes`` against ``value_source``, per value,
  refills included); best of five ``timeit`` repeats;
* the value plane of the ``soda-64k`` shape (SODA [6,4], 2+2 closed-loop
  clients, 64 KiB values, 1 000 operations, checker on): digest and filler
  calls per operation, which are deterministic and the same before and
  after, times the per-call costs of the first table.
"""

import timeit
from hashlib import blake2b, sha256

import numpy as np

from repro.baselines.registry import make_cluster
from repro.consistency import incremental
from repro.consistency.stream import StreamingRecorder
from repro.runtime import driver
from repro.runtime.config import RunConfig
from repro.runtime.driver import value_source

SIZES = (32, 1024, 4096, 65536)
HEADER = b"w0#1234|"


def best_us(fn, number):
    return min(timeit.repeat(fn, number=number, repeat=5)) / number * 1e6


class NoWarm:
    """A SODA [6,4] cluster as ``value_source`` sees it, minus the encoder."""

    code = make_cluster("SODA", 6, 2).code

    @staticmethod
    def warm_encode(values):
        return 0


def unit_costs():
    """size -> {column: us per call}.  Values are made a refill (64) at a
    time and kept until the refill is done (the driver draws values of 16
    KiB and up one at a time instead, as their writers ask)."""
    rows = {}
    for size in SIZES:
        number = max(4, 20_000 // (size // 64 + 8))
        value = np.random.default_rng(0).bytes(size)
        cfg = RunConfig(value_size=size)
        rng = np.random.default_rng(1)
        next_value = value_source(NoWarm, np.random.default_rng(1), cfg, "w0")

        def with_rng_bytes():
            return [
                HEADER + rng.bytes(size - len(HEADER)) for _ in range(cfg.warm_batch)
            ]

        def with_value_source():
            return [next_value() for _ in range(cfg.warm_batch)]

        per_value = number * cfg.warm_batch
        rows[size] = {
            "blake2b": best_us(
                lambda: blake2b(value, digest_size=16).digest(), per_value
            ),
            "sha256": best_us(lambda: sha256(value).digest()[:16], per_value),
            "_value_key": best_us(lambda: incremental._value_key(value), per_value),
            "rng.bytes": best_us(with_rng_bytes, number) / cfg.warm_batch,
            "value_source": best_us(with_value_source, number) / cfg.warm_batch,
        }
    return rows


def soda_64k_calls(ops=1000, seed=0):
    """(digests, of which >= 1 KiB, values generated, completed ops)."""
    digests = []
    real = incremental._value_key
    refill = driver._refill
    incremental._value_key = lambda value: (
        digests.append(len(value or b"")) or real(value)
    )
    try:
        recorder = StreamingRecorder(window=256)
        checker = recorder.subscribe(incremental.IncrementalAtomicityChecker())
        cluster = make_cluster(
            "SODA", 6, 2, num_writers=2, num_readers=2, seed=seed, recorder=recorder
        )
        generated = []

        def counting_refill(*args):
            for value in refill(*args):
                generated.append(len(value))
                yield value

        driver._refill = counting_refill
        stats = cluster.run_streamed(
            operations=ops, value_size=65536, mean_gap=0.25, seed=seed + 1
        )
    finally:
        incremental._value_key = real
        driver._refill = refill
    assert checker.ok
    large = sum(size >= incremental._MEMO_MIN_BYTES for size in digests)
    return len(digests), large, len(generated), stats.completed


def main():
    rows = unit_costs()
    columns = ("blake2b", "sha256", "_value_key", "rng.bytes", "value_source")
    print(
        "| value size | BLAKE2b-128 | SHA-256[:16] | `_value_key` "
        "| header + `rng.bytes` | `value_source` |"
    )
    print("| ---: | ---: | ---: | ---: | ---: | ---: |")
    for size, row in rows.items():
        print(f"| {size} B | " + " | ".join(f"{row[c]:.2f}" for c in columns) + " |")
    digests, large, generated, completed = soda_64k_calls()
    big = rows[65536]
    per_op = {
        "digest": (large / completed, big["blake2b"], big["sha256"]),
        "filler": (generated / completed, big["rng.bytes"], big["value_source"]),
    }
    print(
        f"\nsoda-64k shape: {completed} ops, {digests} digests "
        f"({large} of >= 1 KiB), {generated} values generated"
    )
    print("| part | calls/op | parent us/op | change us/op |")
    print("| --- | ---: | ---: | ---: |")
    totals = [0.0, 0.0]
    for part, (calls, parent, change) in per_op.items():
        totals[0] += calls * parent
        totals[1] += calls * change
        print(
            f"| {part} | {calls:.3f} | {calls * parent:.1f} | {calls * change:.1f} |"
        )
    print(f"| value plane | | {totals[0]:.1f} | {totals[1]:.1f} |")


if __name__ == "__main__":
    main()
