"""Cross-protocol streaming atomicity fuzz.

All five protocols are streamed through a bounded recorder with the online
incremental checker attached while randomized fault schedules run against
them: correlated server-crash bursts (bounded by each cluster's ``f``),
slow-disk stragglers, skewed read/write mixes and client crashes.  Every
run is *correct* by the protocols' guarantees, so the checker reporting a
violation on any of them would be a checker (or protocol) bug — this is
the soundness half of the fuzz suite, complementing the seeded-violation
differential tests in ``tests/consistency/test_fuzz_checkers.py``.
"""

import os

import pytest
from crash_client import crash_client
from pct import PCTScheduler
from sent_payloads import SentPayloads

from repro.baselines.registry import available_protocols, make_cluster
from repro.consistency.incremental import IncrementalAtomicityChecker
from repro.consistency.stream import StreamingRecorder
from repro.sim.failures import CrashSchedule
from repro.sim.network import SlowDisk, UniformDelay
from repro.sim.simulation import derive_seed
from repro.workloads.faults import WithholdingAdversary, WithholdLeg

PROTOCOLS = available_protocols()

#: Nightly-fuzz knobs (see .github/workflows/nightly-fuzz.yml): FUZZ_FACTOR
#: multiplies the seed pool (10x the runs per protocol x scenario),
#: FUZZ_SEED shifts every seed so each night explores fresh schedules.
#: The seeds appear in the pytest parametrize ids, so a failing run is
#: reproducible from the test id alone.
FUZZ_FACTOR = int(os.environ.get("FUZZ_FACTOR", "1"))
FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))
SEEDS = tuple(
    FUZZ_SEED + base + 13 * round_index
    for round_index in range(FUZZ_FACTOR)
    for base in (1, 7)
)
OPS = 70


def build(protocol, *, seed, num_writers=2, num_readers=2):
    extra = {}
    if protocol.upper() == "CASGC":
        extra["delta"] = 4
    if protocol.upper() == "SODAERR":
        extra["e"] = 1
    recorder = StreamingRecorder(window=64)
    cluster = make_cluster(
        protocol,
        5,
        2,
        num_writers=num_writers,
        num_readers=num_readers,
        seed=seed,
        recorder=recorder,
        delay_model=UniformDelay(0.1, 1.0),
        **extra,
    )
    checker = recorder.subscribe(IncrementalAtomicityChecker())
    return cluster, recorder, checker


def assert_clean(cluster, recorder, checker, stats):
    assert checker.ok, checker.violations
    assert stats.issued <= stats.requested
    assert stats.completed + stats.failed <= stats.issued
    # Bounded memory held throughout, crashes included.
    assert recorder.max_resident <= 64 + cluster.num_writers + cluster.num_readers


def straggling_writers(protocol, seed):
    """Every message a writer sends takes up to 8 time units longer, at
    random: a write reaches some servers long before others, so reads that
    overlap it find the new value on some servers and not on others — the
    schedule in which an ABD read that skipped its write-back returns a
    value a later read does not."""
    cluster, recorder, checker = build(protocol, seed=seed)
    cluster.sim.network.delay_model = SlowDisk(
        cluster.sim.network.delay_model,
        slow=cluster.writer_ids,
        extra=0.0,
        jitter=8.0,
    )
    stats = cluster.run_streamed(operations=OPS, seed=seed + 7)
    assert_clean(cluster, recorder, checker, stats)
    assert stats.completed == stats.issued == OPS


def sodaerr_faults(seed):
    """SODAerr at its full fault budget, the benchmark's ``sodaerr-faults``
    shape: [8, 4] with ``e = 1``, server 1 corrupting every element it
    reads from disk, servers 0 and 2 crashing at 100 and 200, 4 KiB values.
    Every read must decode the value a write wrote."""
    recorder = StreamingRecorder(window=64)
    cluster = make_cluster(
        "SODAerr",
        8,
        2,
        e=1,
        error_probability=1.0,
        error_prone_servers=(1,),
        num_writers=2,
        num_readers=2,
        seed=seed,
        recorder=recorder,
    )
    checker = recorder.subscribe(IncrementalAtomicityChecker())
    cluster.crash_server(0, 100.0)
    cluster.crash_server(2, 200.0)
    stats = cluster.run_streamed(operations=OPS, value_size=4096, seed=seed + 8)
    assert_clean(cluster, recorder, checker, stats)
    assert stats.completed == OPS


def pct_schedule(protocol, seed, depth):
    """One PCT schedule of bug depth ``depth`` (``tests/pct.py``): its
    change points are drawn over the sends the same run makes unperturbed.
    Returns the scheduler."""
    cluster, _, _ = build(protocol, seed=seed)
    cluster.run_streamed(operations=OPS, seed=seed + 9)
    steps = cluster.sim.network.stats.messages_sent
    cluster, recorder, checker = build(protocol, seed=seed)
    scheduler = PCTScheduler(
        depth=depth, steps=steps, seed=derive_seed("pct", seed, depth)
    )
    cluster.sim.network.install_adversary(scheduler)
    stats = cluster.run_streamed(operations=OPS, seed=seed + 9)
    assert_clean(cluster, recorder, checker, stats)
    assert stats.completed == OPS
    return scheduler


# ----------------------------------------------------------------------
# the checks that kill the reader mutants (tests/mutants/clients.py), at
# the seeds above: FUZZ_FACTOR times as many at nightly scale
# ----------------------------------------------------------------------
def check_abd_reads_under_straggling_writers():
    for seed in SEEDS:
        straggling_writers("ABD", seed)


def check_sodaerr_reads_through_a_corrupt_server():
    for seed in SEEDS:
        sodaerr_faults(seed)


@pytest.mark.parametrize(
    "check",
    [
        check_abd_reads_under_straggling_writers,
        check_sodaerr_reads_through_a_corrupt_server,
    ],
)
def test_the_real_readers_pass_the_checks_that_kill_their_mutants(check):
    check()


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", SEEDS)
class TestRandomSchedules:
    def test_server_crash_burst(self, protocol, seed):
        cluster, recorder, checker = build(protocol, seed=seed)
        rng = cluster.sim.spawn_rng()
        schedule = CrashSchedule.burst(
            cluster.server_ids,
            cluster.f,
            rng,
            start_range=(2.0, 10.0),
            width=float(rng.uniform(0.0, 1.0)),
        )
        cluster.apply_crash_schedule(schedule)
        stats = cluster.run_streamed(operations=OPS, seed=seed + 1)
        assert_clean(cluster, recorder, checker, stats)
        assert stats.completed > 0

    def test_random_server_crashes(self, protocol, seed):
        cluster, recorder, checker = build(protocol, seed=seed)
        rng = cluster.sim.spawn_rng()
        schedule = CrashSchedule.random(
            cluster.server_ids, cluster.f, rng, time_range=(0.0, 15.0)
        )
        cluster.apply_crash_schedule(schedule)
        stats = cluster.run_streamed(operations=OPS, seed=seed + 2)
        assert_clean(cluster, recorder, checker, stats)

    def test_slow_disk_stragglers(self, protocol, seed):
        cluster, recorder, checker = build(protocol, seed=seed)
        cluster.sim.network.delay_model = SlowDisk(
            cluster.sim.network.delay_model,
            slow=cluster.server_ids[: cluster.f],
            extra=4.0,
        )
        stats = cluster.run_streamed(operations=OPS, seed=seed + 3)
        assert_clean(cluster, recorder, checker, stats)
        assert stats.completed == stats.issued == OPS

    @pytest.mark.parametrize("mix", [(1, 3), (3, 1)])
    def test_skewed_mixes(self, protocol, seed, mix):
        writers, readers = mix
        cluster, recorder, checker = build(
            protocol, seed=seed, num_writers=writers, num_readers=readers
        )
        stats = cluster.run_streamed(operations=OPS, seed=seed + 4)
        assert_clean(cluster, recorder, checker, stats)
        assert stats.completed == OPS
        if readers > writers:
            assert stats.reads > stats.writes
        else:
            assert stats.writes > stats.reads

    def test_straggling_writers(self, protocol, seed):
        straggling_writers(protocol, seed)

    def test_client_crash_mid_run(self, protocol, seed):
        """A reader dies mid-operation: its op is marked failed, retired
        from the bounded recorder, ignored by the checker, and the rest of
        the run stays atomic."""
        cluster, recorder, checker = build(protocol, seed=seed)
        crash_client(cluster, cluster.reader_ids[0], at_time=6.0)
        stats = cluster.run_streamed(operations=OPS, seed=seed + 5)
        assert_clean(cluster, recorder, checker, stats)
        # The surviving clients carried on past the crash.
        assert stats.completed > OPS // 2

    def test_no_handler_rewrites_a_payload(self, protocol, seed):
        """Message classes are not frozen: one object reaches every
        destination and relay hop, so a handler assigning to what it sent or
        received would corrupt its peers' input.  Watched here under random
        crashes plus (SODA's element relays) a withholding server, in runs
        ``FUZZ_FACTOR`` times longer at nightly scale."""
        cluster, recorder, checker = build(protocol, seed=seed)
        payloads = SentPayloads(cluster.sim.network)
        rng = cluster.sim.spawn_rng()
        schedule = CrashSchedule.random(
            cluster.server_ids, cluster.f - 1, rng, time_range=(0.0, 15.0)
        )
        cluster.apply_crash_schedule(schedule)
        cluster.sim.network.install_adversary(
            WithholdingAdversary(
                WithholdLeg(start=3.0, duration=9.0), frozenset(cluster.server_ids[-1:])
            )
        )
        stats = cluster.run_streamed(operations=OPS * FUZZ_FACTOR, seed=seed + 6)
        assert_clean(cluster, recorder, checker, stats)
        assert stats.completed > OPS // 2
        payloads.check()


#: PCT schedules per protocol and depth: FUZZ_FACTOR times as many nightly.
PCT_SEEDS = tuple(FUZZ_SEED + seed for seed in range(4 * FUZZ_FACTOR))


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_pct_schedules_stay_atomic(protocol, depth):
    """Random priorities per send (depth 1), plus one or two sends demoted
    past a whole operation: every read still returns an atomic value and
    every operation completes."""
    schedulers = [pct_schedule(protocol, seed, depth) for seed in PCT_SEEDS]
    # The demotions land: a change point past the end of a run is rare.
    demoted = sum(scheduler.demoted for scheduler in schedulers)
    assert demoted >= (depth - 1) * (len(PCT_SEEDS) - 1)
