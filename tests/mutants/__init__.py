"""The mutant registry: every deliberately broken variant in this package,
how it is installed, and the checks that must kill it.

A mutant is a small subclass of a class under ``src/`` that breaks one
guarantee; nothing under ``src/`` knows about it.  ``tests/test_kill_matrix.py``
runs every (mutant, kill) pair of :data:`MUTANTS` and fails with the
mutant's name if one survives.  The real classes pass the same checks in
the test modules that define them.

``install`` is one of:

* ``"instance"`` — the check is called with a fresh instance of the mutant,
  standing where the real checker or recorder would;
* ``"<module>.<attribute>"`` — the mutant replaces that attribute for the
  duration of the check (a cluster module then builds its servers from it),
  and the check is called with no argument.

A kill names its check as ``"<path under tests/>::<function>"`` and the
exception and message the mutant must die with, so a check that breaks for
an unrelated reason does not count as a kill.
"""

from dataclasses import dataclass
from typing import Tuple

import pytest


@dataclass(frozen=True)
class Kill:
    """One check that must fail while the mutant is installed."""

    check: str
    raises: type
    match: str


@dataclass(frozen=True)
class Mutant:
    name: str
    #: The ``src/repro`` package of the class it breaks.
    layer: str
    #: The module of this package that defines it.
    module: str
    install: str
    kills: Tuple[Kill, ...]


_SODA_SERVER = "repro.core.soda.cluster.SodaServer"
_RECENT_WRITES = "repro.consistency.incremental._RecentWrites"
_SODA_WRITER = "repro.core.soda.cluster.SodaWriter"
_CAS_WRITER = "repro.baselines.cas.CasWriter"

MUTANTS = (
    Mutant(
        "UnguardedFreshWriteChecker",
        "consistency",
        "checker",
        "instance",
        (
            Kill(
                "consistency/test_incremental.py::check_duplicate_write_flagged",
                AssertionError,
                "duplicate-write-value",
            ),
        ),
    ),
    Mutant(
        "BlindToResponsesChecker",
        "consistency",
        "checker",
        "instance",
        (
            Kill(
                "consistency/test_incremental.py::"
                "check_crossing_closed_by_a_response_flagged",
                AssertionError,
                "cluster-cycle",
            ),
        ),
    ),
    Mutant(
        "FingerprintTrustingMemo",
        "consistency",
        "checker",
        _RECENT_WRITES,
        (
            Kill(
                "consistency/test_incremental.py::"
                "check_read_of_a_middle_changed_value_flagged",
                AssertionError,
                "unwritten-value",
            ),
        ),
    ),
    Mutant(
        "PrefixDigestChecker",
        "consistency",
        "checker",
        "instance",
        (
            Kill(
                "consistency/test_incremental.py::"
                "check_writes_differing_in_the_middle_are_distinct",
                AssertionError,
                "duplicate-write-value",
            ),
            Kill(
                "consistency/test_incremental.py::"
                "check_read_of_a_middle_changed_value_flagged",
                AssertionError,
                "unwritten-value",
            ),
        ),
    ),
    Mutant(
        "EvictsInFlightRecorder",
        "consistency",
        "recorder",
        "instance",
        (
            Kill(
                "consistency/test_stream.py::check_large_write_in_flight_stays",
                ValueError,
                "already evicted from its retirement window",
            ),
            Kill(
                "runtime/test_state_bounds.py::check_soda_64k_state_bounds",
                ValueError,
                "already evicted from its retirement window",
            ),
        ),
    ),
    Mutant(
        "RespondsTwiceRecorder",
        "consistency",
        "recorder",
        "instance",
        (
            Kill(
                "consistency/test_stream.py::check_one_response_per_operation",
                pytest.fail.Exception,
                "DID NOT RAISE",
            ),
        ),
    ),
    Mutant(
        "LaggingWatermarkServer",
        "core",
        "soda_server",
        _SODA_SERVER,
        (
            Kill(
                "runtime/test_state_bounds.py::check_soda_64k_state_bounds",
                AssertionError,
                "per_read",
            ),
        ),
    ),
    Mutant(
        "RewritingRelayServer",
        "core",
        "soda_server",
        _SODA_SERVER,
        (
            Kill(
                "sim/test_message_path.py::check_soda_payloads_unchanged",
                AssertionError,
                "payload changed after it was sent",
            ),
        ),
    ),
    Mutant(
        "TagReusingSodaWriter",
        "core",
        "clients",
        _SODA_WRITER,
        (
            Kill(
                "core/test_client.py::check_soda_write_then_read",
                AssertionError,
                "cluster-cycle",
            ),
        ),
    ),
    Mutant(
        "UnfinalizedCasWriter",
        "baselines",
        "clients",
        _CAS_WRITER,
        (
            Kill(
                "core/test_client.py::check_cas_write_then_read",
                AssertionError,
                "cluster-cycle",
            ),
        ),
    ),
)
