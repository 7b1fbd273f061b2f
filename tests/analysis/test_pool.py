"""The spawn pool fails by name: a dead worker is :class:`WorkerDied`, never
a hang; a payload that raises re-raises with its index.

The dead-worker and out-of-memory cases run in a child interpreter under a
timeout, so a pool that hangs again fails this test instead of stalling
the suite.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pool_payloads import raises_on_two

import repro
from repro.analysis.pool import iter_unordered

HERE = Path(__file__).resolve().parent
SRC = Path(repro.__file__).resolve().parent.parent

KILLED_RUN = """
from pool_payloads import killed_on_one
from repro.analysis.pool import WorkerDied, iter_unordered

try:
    list(iter_unordered(killed_on_one, range(4), jobs=2))
except WorkerDied as exc:
    print("died", *exc.indices)
"""


def test_a_killed_worker_raises_worker_died_within_seconds():
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", KILLED_RUN],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])},
    )
    assert done.returncode == 0, done.stderr
    word, *indices = done.stdout.split()
    assert word == "died" and "1" in indices, done.stdout
    assert time.perf_counter() - start < 30


OUT_OF_MEMORY_RUN = """
from pool_payloads import out_of_memory_on_one
from repro.analysis.pool import WorkerDied, iter_unordered

try:
    list(iter_unordered(out_of_memory_on_one, range(4), jobs=2))
except MemoryError as exc:
    print("memory", exc.payload_index)
except WorkerDied as exc:
    print("died", *exc.indices)
"""


def test_a_worker_out_of_address_space_ends_the_run_by_name():
    """A payload that lowers its own ``RLIMIT_AS`` and allocates past it is a
    ``MemoryError`` naming its payload, or a dead worker if the allocator
    aborts it: never a hang."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", OUT_OF_MEMORY_RUN],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])},
    )
    assert done.returncode == 0, done.stderr
    word, *indices = done.stdout.split()
    assert (word, indices) == ("memory", ["1"]) or (
        word == "died" and "1" in indices
    ), done.stdout
    assert time.perf_counter() - start < 30


def test_a_payload_that_raises_names_its_index():
    with pytest.raises(ValueError, match="payload two is bad") as caught:
        list(iter_unordered(raises_on_two, range(4), jobs=2))
    assert caught.value.payload_index == 2
