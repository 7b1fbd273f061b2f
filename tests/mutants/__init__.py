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
  and the check is called with no argument;
* ``"native:<label>"`` — a C-source mutant (``mutants/native.py``) of the
  compiled module of ``repro.native.NATIVE`` with that label: its source is
  built into a temporary cache and stands in for the module's ``load``
  for the duration of the check, which is called with no argument (the
  row is skipped where it cannot be built, where the host does not
  compile the code it changes, or, for a mutant marked ``nightly``, unless
  ``FUZZ_FACTOR`` is above 1: tier-1 builds at most three of them).

A kill names its check as ``"<path under tests/>::<function>"`` and the
exception and message the mutant must die with, so a check that breaks for
an unrelated reason does not count as a kill.
"""

from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.erasure.mds import DecodingError


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
_SODA_READER = "repro.core.soda.cluster.SodaReader"
_CAS_WRITER = "repro.baselines.cas.CasWriter"
_ABD_READER = "repro.baselines.abd.AbdReader"
_SODAERR_READER = "repro.core.sodaerr.cluster.SodaErrReader"
_MD_ENGINE = "repro.core.soda.server.MDServerEngine"
_DECODER = "repro.runtime.cluster.CachedDecoder"
_REBASE = "repro.analysis.engine.rebase_verdict"
_EPOCH_CELLS = "repro.analysis.engine.epoch_cells"

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
        "StaleTagSodaServer",
        "core",
        "soda_server",
        _SODA_SERVER,
        (
            Kill(
                "core/test_client.py::check_soda_write_then_read",
                AssertionError,
                "cluster-cycle",
            ),
            Kill(
                "core/test_client.py::check_soda_write_then_read_tags",
                AssertionError,
                "P2",
            ),
        ),
    ),
    Mutant(
        "EarlyCountdownEngine",
        "core",
        "md_engine",
        _MD_ENGINE,
        (
            Kill(
                "core/test_md_state_bound.py::check_soda_delivers_each_md_send_once",
                AssertionError,
                "more copies than the relay topology produces",
            ),
        ),
    ),
    Mutant(
        "LateCountdownEngine",
        "core",
        "md_engine",
        _MD_ENGINE,
        (
            Kill(
                "core/test_md_state_bound.py::check_soda_drains_every_pending_copy",
                AssertionError,
                "pending_copies not drained",
            ),
        ),
    ),
    Mutant(
        "ShortMetaRelayEngine",
        "core",
        "md_engine",
        _MD_ENGINE,
        (
            Kill(
                "core/test_md_state_bound.py::check_md_meta_is_uniform_after_f_crashes",
                AssertionError,
                "uniformity violated",
            ),
            Kill(
                "core/test_md_state_bound.py::check_soda_drains_every_pending_copy",
                AssertionError,
                "pending_copies not drained",
            ),
        ),
    ),
    Mutant(
        "GaplessRebase",
        "analysis",
        "engine",
        _REBASE,
        (
            Kill(
                "analysis/test_longrun.py::"
                "check_rebased_writes_sit_where_the_replay_has_them",
                AssertionError,
                "rebased to .* but replayed at",
            ),
        ),
    ),
    Mutant(
        "LastCellDroppingEpochs",
        "analysis",
        "engine",
        _EPOCH_CELLS,
        (
            Kill(
                "analysis/test_fleet.py::check_every_epoch_folds_every_object",
                AssertionError,
                "epoch 0 folded objects",
            ),
        ),
    ),
    Mutant(
        "TaglessCachedDecoder",
        "erasure",
        "decoder",
        _DECODER,
        (
            Kill(
                "core/test_client.py::check_soda_read_write_read",
                AssertionError,
                "cluster-cycle",
            ),
            Kill(
                "core/test_client.py::check_soda_read_write_read_tags",
                AssertionError,
                "P3",
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
            Kill(
                "core/test_client.py::check_soda_write_then_read_tags",
                AssertionError,
                "P2",
            ),
        ),
    ),
    Mutant(
        "SkipsReadCompleteSodaReader",
        "core",
        "clients",
        _SODA_READER,
        (
            Kill(
                "core/test_soda_read_lifetime.py::"
                "check_soda_reads_leave_no_per_read_state",
                AssertionError,
                "per-read state left",
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
            Kill(
                "core/test_client.py::check_cas_write_then_read_tags",
                AssertionError,
                "P1",
            ),
        ),
    ),
    Mutant(
        "NoWriteBackAbdReader",
        "baselines",
        "clients",
        _ABD_READER,
        (
            Kill(
                "test_cross_protocol_fuzz.py::check_abd_reads_under_straggling_writers",
                AssertionError,
                "cluster-cycle",
            ),
        ),
    ),
    Mutant(
        "FlippedDirtyACore",
        "consistency",
        "native",
        "native:checker core",
        (
            Kill(
                "consistency/test_checker_core.py::check_fixed_streams_per_event",
                AssertionError,
                "the executors diverged",
            ),
        ),
    ),
    Mutant(
        "EarlyCountdownLoop",
        "sim",
        "native",
        "native:run loop",
        (
            Kill(
                "sim/test_run_loop.py::check_soda_runs_are_identical",
                AssertionError,
                "the compiled and the Python loop diverged",
            ),
        ),
    ),
    Mutant(
        "UnnamedFirstReadCore",
        "consistency",
        "native",
        "native:checker core",
        (
            Kill(
                "consistency/test_checker_core.py::check_fixed_streams_per_event",
                AssertionError,
                "the executors diverged",
            ),
        ),
    ),
    Mutant(
        "HalfKeyCore",
        "consistency",
        "native",
        "native:checker core",
        (
            Kill(
                "consistency/test_checker_core.py::check_a_key_table_acts_as_a_dict",
                AssertionError,
                "the key table and the dict disagree",
            ),
        ),
    ),
    Mutant(
        "ShiftedHighLaneKernels",
        "erasure",
        "native",
        "native:gf backend",
        (
            Kill(
                "erasure/test_vectors.py::check_coded_elements",
                AssertionError,
                "soda-6-4-64KiB: the native codec no longer produces",
            ),
        ),
    ),
    Mutant(
        "OffByOneScalarKernels",
        "erasure",
        "native",
        "native:gf backend",
        (
            Kill(
                "erasure/test_vectors.py::check_coded_elements",
                AssertionError,
                "soda-6-4-32B: the native codec no longer produces",
            ),
        ),
    ),
    Mutant(
        # Its wrong decodes mostly garble the frame's length header, so the
        # run dies of the decoder; at about a third of the seeds the checker
        # has flagged an ``unwritten-value`` read before that.
        "UnderstatedErrorSodaErrReader",
        "core",
        "clients",
        _SODAERR_READER,
        (
            Kill(
                "test_cross_protocol_fuzz.py::"
                "check_sodaerr_reads_through_a_corrupt_server",
                DecodingError,
                "decoded data truncated",
            ),
        ),
    ),
)
