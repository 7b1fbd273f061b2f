"""Throughput benchmark: table-driven GF(2^8) kernels vs. the seed kernels.

The seed implementation computed ``mul_vec``/``scale_vec`` with exp/log
lookups guarded by boolean zero-masks (two temporaries and a fancy scatter
per call) and ``matmul`` as a per-column loop over ``mul_vec``.  The current
kernels replace all of that with single gathers into a precomputed 256 x 256
product table.  This module measures both against each other at the paper's
reference code parameters so the speedup is tracked in ``BENCH_erasure.json``
from this PR onward.

Run directly for a human-readable report::

    PYTHONPATH=src python benchmarks/bench_gf_kernels.py

or through ``benchmarks/run_benchmarks.py`` to (re)generate the committed
``BENCH_erasure.json``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from repro.erasure.gf import GF256, available_backends
from repro.erasure.rs import ReedSolomonCode

#: Reference code parameters fixed by the acceptance criteria.
N, K = 10, 5
VALUE_SIZE = 64 * 1024
#: The shape the ``soda-64k`` benchmark workload runs (SODA n=6, f=2 with
#: the same 64 KiB values): per-value encode/decode rows at [6, 4].
SODA_N, SODA_K = 6, 4
#: Stripe width for the batched-encode rows: same-sized values handed to
#: one ``encode_many`` call.
STRIPE_BATCH = 16
#: SODAerr reference geometry (n=10, f=2, e=2 => k = n - f - 2e = 4); reads
#: decode from k + 2e = 8 elements with up to e = 2 silent corruptions.
ERR_N, ERR_K, ERR_E = 10, 4, 2


class SeedKernelField(GF256):
    """A GF(2^8) field whose bulk kernels are the seed implementations.

    Overrides only the vectorised operations; table construction and the
    scalar API stay shared, so codes built on this field exercise exactly
    the seed hot path on identical inputs.
    """

    def mul_vec(self, a, b):  # noqa: D102 - seed reference, see class docstring
        a = np.asarray(a, dtype=np.uint8)
        b_arr = np.asarray(b, dtype=np.uint8)
        a_b, b_b = np.broadcast_arrays(a, b_arr)
        out = np.zeros(a_b.shape, dtype=np.uint8)
        nz = (a_b != 0) & (b_b != 0)
        if np.any(nz):
            idx = self.log[a_b[nz]] + self.log[b_b[nz]]
            out[nz] = self.exp[idx]
        return out

    def scale_vec(self, a, scalar):  # noqa: D102
        if scalar == 0:
            return np.zeros_like(np.asarray(a, dtype=np.uint8))
        a = np.asarray(a, dtype=np.uint8)
        out = np.zeros_like(a)
        nz = a != 0
        if np.any(nz):
            out[nz] = self.exp[self.log[a[nz]] + int(self.log[scalar])]
        return out

    def matmul(self, A, B):  # noqa: D102
        A = np.asarray(A, dtype=np.uint8)
        B = np.asarray(B, dtype=np.uint8)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise ValueError(f"incompatible shapes {A.shape} x {B.shape}")
        m, p = A.shape
        q = B.shape[1]
        out = np.zeros((m, q), dtype=np.uint8)
        for j in range(p):
            col = A[:, j]
            row = B[j, :]
            out ^= self.mul_vec(col[:, None], row[None, :])
        return out

    def matmul_many(self, A, stacked, *, out=None):  # noqa: D102
        # The codec encodes through matmul_many; the seed had no such entry
        # point, so it is the seed matmul per slice.
        return np.stack([self.matmul(A, B) for B in stacked])


def _best_rate(fn: Callable[[], object], payload_bytes: int, repeats: int) -> float:
    """Best observed throughput in MB/s over ``repeats`` timed runs."""
    fn()  # warm-up (table gathers touch the LUT, allocators settle)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return payload_bytes / best / 1e6


def bench_erasure(*, quick: bool = False, seed: int = 0) -> Dict[str, object]:
    """Measure encode/decode and raw-kernel throughput, seed vs. current.

    Returns the ``params``/``results`` payload recorded in
    ``BENCH_erasure.json``.  ``quick`` only lowers the repeat count — the
    measured operation sizes stay identical, so quick runs remain directly
    comparable to the committed baseline.
    """
    repeats = 3 if quick else 15
    rng = np.random.default_rng(seed)
    value = bytes(rng.integers(0, 256, VALUE_SIZE, dtype=np.uint8))

    # The "table" and "numpy_*" rows are the numpy table kernel, pinned: the
    # unset default resolves to the compiled kernels wherever they build.
    fast_code = ReedSolomonCode(N, K, field=GF256(backend="numpy"))
    seed_code = ReedSolomonCode(N, K, field=SeedKernelField())

    results: Dict[str, float] = {}
    for label, code in (("table", fast_code), ("seed", seed_code)):
        elements = code.encode(value)
        # Decode from the k highest-index elements: forces a genuine
        # (non-systematic) matrix solve, the SODA reader's hot path.
        subset = elements[N - K :]
        assert code.decode(subset) == value
        results[f"{label}_encode_mb_per_s"] = _best_rate(
            lambda c=code: c.encode(value), VALUE_SIZE, repeats
        )
        results[f"{label}_decode_mb_per_s"] = _best_rate(
            lambda c=code, s=subset: c.decode(s), VALUE_SIZE, repeats
        )

        def encode_decode(c=code) -> None:
            c.decode(c.encode(value)[N - K :])

        results[f"{label}_encode_decode_mb_per_s"] = _best_rate(
            encode_decode, VALUE_SIZE, repeats
        )

    # The soda-64k shape: the same value through [6, 4], per value, on
    # every backend ("soda_*" is the numpy backend).
    for backend in available_backends():
        prefix = "soda" if backend == "numpy" else f"{backend}_soda"
        code = ReedSolomonCode(SODA_N, SODA_K, field=GF256(backend=backend))
        soda_subset = code.encode(value)[SODA_N - SODA_K :]
        assert code.decode(soda_subset) == value
        results[f"{prefix}_encode_mb_per_s"] = _best_rate(
            lambda c=code: c.encode(value), VALUE_SIZE, repeats
        )
        results[f"{prefix}_decode_mb_per_s"] = _best_rate(
            lambda c=code, s=soda_subset: c.decode(s), VALUE_SIZE, repeats
        )

    # Raw kernel micro-benchmarks on the same field instance pair.
    a = rng.integers(0, 256, VALUE_SIZE, dtype=np.uint8)
    b = rng.integers(0, 256, VALUE_SIZE, dtype=np.uint8)
    fast_field = fast_code.field
    seed_field = seed_code.field
    results["table_mul_vec_mb_per_s"] = _best_rate(
        lambda: fast_field.mul_vec(a, b), VALUE_SIZE, repeats
    )
    results["seed_mul_vec_mb_per_s"] = _best_rate(
        lambda: seed_field.mul_vec(a, b), VALUE_SIZE, repeats
    )

    # ------------------------------------------------------------------
    # per-backend kernel rows (PR 7): the same encode/decode measured on
    # every GF backend buildable on this host, plus the stripe-at-a-time
    # rows the new gates track.  The gated ``stripe_encode_mb_per_s`` is
    # the max across backends — "the best this host can do".
    # ------------------------------------------------------------------
    backends = available_backends()
    elements_check = fast_code.encode(value)
    stripe_values = [
        bytes(rng.integers(0, 256, VALUE_SIZE, dtype=np.uint8))
        for _ in range(STRIPE_BATCH)
    ]
    stripe_bytes = STRIPE_BATCH * VALUE_SIZE
    stripe_rates: List[float] = []
    for backend in backends:
        code = (
            fast_code
            if backend == "numpy"
            else ReedSolomonCode(N, K, field=GF256(backend=backend))
        )
        if backend != "numpy":
            assert code.encode(value) == elements_check
            results[f"{backend}_encode_mb_per_s"] = _best_rate(
                lambda c=code: c.encode(value), VALUE_SIZE, repeats
            )
            results[f"{backend}_decode_mb_per_s"] = _best_rate(
                lambda c=code, s=subset: c.decode(s), VALUE_SIZE, repeats
            )
        rate = _best_rate(
            lambda c=code: c.encode_many(stripe_values), stripe_bytes, repeats
        )
        results[f"{backend}_stripe_encode_mb_per_s"] = rate
        stripe_rates.append(rate)
    results["stripe_encode_mb_per_s"] = max(stripe_rates)
    best_backend = backends[int(np.argmax(stripe_rates))]

    # SODAerr errors-and-erasures decode: k + 2e elements, e of them
    # silently corrupted, through the stripe-at-a-time fast path.
    err_code = ReedSolomonCode(ERR_N, ERR_K, field=GF256(backend=best_backend))
    err_elements = err_code.encode(value)[: ERR_K + 2 * ERR_E]
    corrupted = [
        type(el)(el.index, bytes([el.data[0] ^ 0xA5]) + el.data[1:])
        if slot < ERR_E
        else el
        for slot, el in enumerate(err_elements)
    ]
    assert err_code.decode_with_errors(corrupted, max_errors=ERR_E) == value
    results["sodaerr_error_decode_mb_per_s"] = _best_rate(
        lambda: err_code.decode_with_errors(corrupted, max_errors=ERR_E),
        VALUE_SIZE,
        repeats,
    )

    results["encode_speedup_vs_seed"] = (
        results["table_encode_mb_per_s"] / results["seed_encode_mb_per_s"]
    )
    results["decode_speedup_vs_seed"] = (
        results["table_decode_mb_per_s"] / results["seed_decode_mb_per_s"]
    )
    results["encode_decode_speedup_vs_seed"] = (
        results["table_encode_decode_mb_per_s"]
        / results["seed_encode_decode_mb_per_s"]
    )
    return {
        "params": {
            "n": N,
            "k": K,
            "value_size_bytes": VALUE_SIZE,
            "repeats": repeats,
            "seed": seed,
            "soda_n": SODA_N,
            "soda_k": SODA_K,
            "stripe_batch": STRIPE_BATCH,
            "sodaerr_n": ERR_N,
            "sodaerr_k": ERR_K,
            "sodaerr_e": ERR_E,
            "backends": backends,
            "best_backend": best_backend,
        },
        "results": results,
    }


def main() -> None:
    payload = bench_erasure()
    backends = ", ".join(payload["params"]["backends"])
    print(f"GF(2^8) kernels @ [n={N}, k={K}], {VALUE_SIZE // 1024} KiB values")
    print(f"  backends available: {backends} (best: {payload['params']['best_backend']})")
    for key, val in payload["results"].items():
        if key.endswith("_vs_seed"):
            unit = "x"
        elif key.endswith("_ops_per_s"):
            unit = " ops/s"
        else:
            unit = " MB/s"
        print(f"  {key:36s} {val:10.2f}{unit}")


if __name__ == "__main__":
    main()
