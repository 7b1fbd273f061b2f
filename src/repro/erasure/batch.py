"""The codec front: memoizing encoder and decoder a cluster's processes share.

Encoding: in the MD-VALUE dispersal primitive every server of the
dispersal set (the first ``f + 1`` servers) encodes the *same* value to
derive the coded elements it forwards — ``f + 1`` identical encodes per
write.  A :class:`CachedEncoder` shared across the cluster collapses those
into one.  An encoding is wanted from the first dispersal server's encode
to the ``(f + 1)``-th and never again.

Small values are also encoded ahead of their write: :meth:`CachedEncoder.warm`
takes the batch of values a workload driver has just generated and encodes
those that share a kernel call (:meth:`~repro.erasure.mds.MDSCode.batch_step`
above 1) in one batched :meth:`~repro.erasure.mds.MDSCode.encode_many`,
which spreads the per-call overhead over the batch.  Large values are
encoded one by one either way, so warming them would buy no time and hold
a batch of encodings in memory until their writes come round; they are
encoded by their write.  :func:`pre_encodes` is that test, and the drivers
ask it too: a value it turns down is not even drawn before its write.

Decoding: concurrent reads of the same version decode the same
``(tag, element-set)`` — every read between two writes reconstructs an
identical value.  A :class:`CachedDecoder` shared by a cluster's readers
memoizes those reconstructions (including SODAerr's far more expensive
errors-and-erasures decode).  A reconstruction is wanted again within a
few reads or not at all.

Both are called inline, at the step the paper's automata encode or decode
at: a dispersal server when the full value arrives, a reader when the
``k``-th (SODAerr: ``k + 2e``-th) coded element of one tag arrives.  There
is no per-event collection point in front of them — one delivery completes
at most one encode or decode, so such a batch never held more than one job
(docs/perf.md, "Codec front").

Both caches are LRU-bounded by entries and by bytes, at what the traffic
asks again for rather than at what a run has seen: the LRU depth of every
hit on the benchmark's workloads is tabulated in docs/perf.md ("Memory:
what a cluster holds"), and the bounds below are those depths with room to
spare.  An entry dropped too early costs one more kernel call, never a
wrong answer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Sequence, Tuple

from repro.erasure.mds import CodedElement, MDSCode

#: Values an encoder keeps.  Only small values get this far (large ones meet
#: :data:`CACHE_BYTE_BUDGET` first), and those are warmed a driver batch at a
#: time: a warmed value is first served up to 134 entries deep.
ENCODER_CAPACITY = 1024

#: Reconstructions a decoder keeps: no hit is deeper than 5.
DECODER_CAPACITY = 8

#: Bytes one cache keeps alive; an entry weighs its value plus every coded
#: element held with it (the encoder's ``n``, the decoder's key).  Between
#: the ``f + 1`` encodes of one write a closed loop encodes at most one other
#: value, so a dozen 64 KiB encodings (160 KiB each at [6,4]) are six times
#: the need; 134 warmed encodings of 4 KiB values at [8,4] are 1.6 MiB.  The
#: newest entry is always kept, so a value larger than the budget is still
#: encoded once, not ``f + 1`` times.
CACHE_BYTE_BUDGET = 2 * 1024 * 1024


def pre_encodes(code: MDSCode, size: int) -> bool:
    """Whether :meth:`CachedEncoder.warm` pre-encodes ``size``-byte values of
    ``code``: only values that share a kernel call
    (:meth:`~repro.erasure.mds.MDSCode.batch_step` above 1).  A workload
    driver asks the same question to decide whether to draw a batch of
    values ahead of their writes at all
    (:func:`~repro.runtime.driver.value_source`).  Always false for a code
    without a batched kernel, such as ABD's replication."""
    return code.batch_step(code.element_size(size)) > 1


def _store(cache: OrderedDict, capacity: int, used: int, key, entry, weigh) -> int:
    """Put ``entry`` under ``key``, then drop least-recently-used entries
    until ``cache`` is within ``capacity`` entries and
    :data:`CACHE_BYTE_BUDGET` bytes (the newest entry always stays).
    ``used`` is the bytes in use before, the return value the bytes after;
    an entry replaced under its own key stops counting."""
    if key in cache:
        used -= weigh(key, cache[key])
    cache[key] = entry
    used += weigh(key, entry)
    while len(cache) > capacity or (used > CACHE_BYTE_BUDGET and len(cache) > 1):
        used -= weigh(*cache.popitem(last=False))
    return used


class CachedEncoder:
    """Memoizing ``encode`` wrapper around an :class:`MDSCode`."""

    def __init__(self, code: MDSCode, capacity: int = ENCODER_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("encoder capacity must be at least 1")
        self.code = code
        self.capacity = capacity
        self._cache: "OrderedDict[bytes, List[CodedElement]]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def encode(self, value: bytes) -> List[CodedElement]:
        """Encode ``value``, serving repeats from the cache."""
        cached = self._cache.get(value)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(value)
            return cached
        self.misses += 1
        elements = self.code.encode(value)
        self._insert(value, elements)
        return elements

    def warm(self, values: Iterable[bytes]) -> int:
        """Pre-encode a batch of values with one ``encode_many`` call.

        Only values that would share a kernel call are taken (see the
        module docstring); duplicates and already-cached values are
        skipped, and the batch is capped at what the cache can hold, in
        entries and in bytes — encoding more would only evict the excess
        again before it is ever served, doubling the work and spiking
        memory by one encoding per surplus value.  Everything else is
        encoded when first written.  Returns the number of values actually
        encoded.
        """
        code = self.code
        fresh = [
            v
            for v in dict.fromkeys(values)
            if pre_encodes(code, len(v)) and v not in self._cache
        ]
        fresh = fresh[: self.capacity]
        room = CACHE_BYTE_BUDGET
        for count, value in enumerate(fresh):
            room -= len(value) + code.n * code.element_size(len(value))
            if room < 0:
                fresh = fresh[: max(count, 1)]
                break
        if not fresh:
            return 0
        for value, elements in zip(fresh, code.encode_many(fresh)):
            self._insert(value, elements)
        return len(fresh)

    # No caller in src/: the frozen bench/spans.py wraps this method by name.
    # Retire it with ``erasure.encode_batch_mean`` in the next benchmark PR.
    def encode_many(self, values: Sequence[bytes]) -> List[List[CodedElement]]:
        """Encode a batch, serving repeats from the cache.

        Distinct uncached values go through the code's batched
        :meth:`~repro.erasure.mds.MDSCode.encode_many` in one call (one
        kernel call per distinct value size).  Hit/miss accounting
        matches the eager loop: the first occurrence of an uncached value
        is a miss, duplicates within the batch are hits.
        """
        out: List[List[CodedElement]] = [None] * len(values)  # type: ignore[list-item]
        miss_positions: "OrderedDict[bytes, List[int]]" = OrderedDict()
        for i, value in enumerate(values):
            cached = self._cache.get(value)
            if cached is not None:
                self.hits += 1
                self._cache.move_to_end(value)
                out[i] = cached
            else:
                miss_positions.setdefault(value, []).append(i)
        if miss_positions:
            fresh = list(miss_positions)
            self.misses += len(fresh)
            self.hits += sum(len(p) - 1 for p in miss_positions.values())
            for value, elements in zip(fresh, self.code.encode_many(fresh)):
                self._insert(value, elements)
                for i in miss_positions[value]:
                    out[i] = elements
        return out

    def _insert(self, value: bytes, elements: List[CodedElement]) -> None:
        self._bytes = _store(
            self._cache, self.capacity, self._bytes, value, elements, self._entry_bytes
        )

    @staticmethod
    def _entry_bytes(value: bytes, elements: Sequence[CodedElement]) -> int:
        """What an entry keeps alive: the value and its coded elements."""
        return len(value) + sum(len(element.data) for element in elements)

    def stats(self) -> dict:
        """Hit/miss/occupancy counters (benchmarks and tests read these)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._cache),
            "bytes": self._bytes,
        }

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, value: bytes) -> bool:
        return value in self._cache


# ----------------------------------------------------------------------
# read-side decode cache
# ----------------------------------------------------------------------
#: A decode job: the protocol tag being reconstructed plus the coded
#: elements collected for it.
DecodeJob = Tuple[object, Sequence[CodedElement]]


class CachedDecoder:
    """Memoizing ``decode`` wrapper around an :class:`MDSCode`.

    Keys are ``(tag, element fingerprint)`` where the fingerprint is the
    sorted ``(index, data)`` pairs of the supplied elements — two reads
    hit the same entry only when they reconstruct from byte-identical
    inputs, so a cache hit is always the exact value an eager decode
    would have produced (including the duplicate-conflict validation:
    conflicting element sets have distinct fingerprints and miss).

    ``max_errors > 0`` switches the decode primitive to the
    errors-and-erasures decoder (SODAerr's ``Phi^-1_err``), which is the
    single most expensive per-read operation in the repository — its
    memoization is what closes the SODAerr/SODA long-run throughput gap.
    """

    def __init__(
        self,
        code: MDSCode,
        capacity: int = DECODER_CAPACITY,
        *,
        max_errors: int = 0,
    ) -> None:
        if capacity < 1:
            raise ValueError("decoder capacity must be at least 1")
        if max_errors < 0:
            raise ValueError("max_errors must be non-negative")
        self.code = code
        self.capacity = capacity
        self.max_errors = max_errors
        self._cache: "OrderedDict[tuple, bytes]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(tag: object, elements: Sequence[CodedElement]) -> tuple:
        return (tag, tuple(sorted((el.index, el.data) for el in elements)))

    def _decode_one(self, elements: Sequence[CodedElement]) -> bytes:
        if self.max_errors:
            return self.code.decode_with_errors(elements, max_errors=self.max_errors)
        return self.code.decode(elements)

    def decode(self, tag: object, elements: Sequence[CodedElement]) -> bytes:
        """Reconstruct ``tag``'s value, serving repeats from the cache."""
        key = self._key(tag, elements)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(key)
            return cached
        self.misses += 1
        value = self._decode_one(elements)
        self._insert(key, value)
        return value

    # No caller in src/: the frozen bench/spans.py wraps this method by name.
    # Retire it with ``erasure.decode_batch_mean`` in the next benchmark PR.
    def decode_many(self, jobs: Sequence[DecodeJob]) -> List[bytes]:
        """Decode a batch of jobs; cache misses go through the code's
        batched :meth:`~repro.erasure.mds.MDSCode.decode_many` in one call
        (the errors-and-erasures decoder has no batched kernel; its jobs
        are decoded per-set but still memoized)."""
        values: List[bytes] = [b""] * len(jobs)
        miss_slots: List[Tuple[int, tuple]] = []
        miss_sets: List[Sequence[CodedElement]] = []
        for i, (tag, elements) in enumerate(jobs):
            key = self._key(tag, elements)
            cached = self._cache.get(key)
            if cached is not None:
                self.hits += 1
                self._cache.move_to_end(key)
                values[i] = cached
            else:
                miss_slots.append((i, key))
                miss_sets.append(elements)
        if miss_sets:
            self.misses += len(miss_sets)
            if self.max_errors:
                decoded = [self._decode_one(elements) for elements in miss_sets]
            else:
                decoded = self.code.decode_many(miss_sets)
            for (i, key), value in zip(miss_slots, decoded):
                values[i] = value
                self._insert(key, value)
        return values

    def _insert(self, key: tuple, value: bytes) -> None:
        self._bytes = _store(
            self._cache, self.capacity, self._bytes, key, value, self._entry_bytes
        )

    @staticmethod
    def _entry_bytes(key: tuple, value: bytes) -> int:
        """What an entry keeps alive: the value and the elements in its key."""
        return len(value) + sum(len(data) for _, data in key[1])

    def stats(self) -> dict:
        """Hit/miss/occupancy counters (benchmarks and tests read these)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._cache),
            "bytes": self._bytes,
        }

    def __len__(self) -> int:
        return len(self._cache)
