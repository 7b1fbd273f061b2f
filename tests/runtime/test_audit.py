"""Tests for availability-audit reads against planted fault plans."""

import itertools
import math
import os
from collections import defaultdict

import pytest

from repro.core.soda.cluster import SodaCluster
from repro.runtime.audit import (
    AuditConfig,
    AuditPool,
    AuditProbeRequest,
    AuditProbeResponse,
)

N, F = 6, 2
K = N - F  # SODA: k = n - f = 4

#: Nightly-fuzz knobs (see .github/workflows/nightly-fuzz.yml): FUZZ_FACTOR
#: multiplies the oracle's trials, FUZZ_SEED shifts their audit seeds.
FUZZ_FACTOR = int(os.environ.get("FUZZ_FACTOR", "1"))
FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))


def audited_cluster(faults, *, seed=0, config=None, rounds=8):
    cluster = SodaCluster(n=N, f=F, num_writers=1, num_readers=1, seed=seed)
    applied = cluster.apply_fault_plan(faults, seed=seed)
    pool = AuditPool(
        cluster.sim,
        [(0, "", cluster.server_ids)],
        k=cluster.code.k,
        config=config
        or AuditConfig(sample=N, interval=2.5, confirm=2, rounds=rounds, start=1.0),
        seeds=[7],
    )
    pool.start()
    return cluster, applied, pool


class TestAuditDetection:
    @pytest.mark.parametrize("short", [1, 2])
    def test_withholding_below_k_is_flagged(self, short):
        # short-of-k withholding leaves k - short elements reachable; the
        # audit must flag the register while the window is open (no false
        # negatives on a planted below-k plan).
        cluster, applied, pool = audited_cluster(f"withhold:{short}:2:60")
        cluster.run()
        ground = applied.objects[0]
        assert ground.below_k
        assert len(ground.withheld) == (N - K) + short
        report = pool.clients[0].report()
        assert report.flagged
        assert report.min_estimate <= K - short
        assert report.first_flagged_at is not None
        lo, hi = ground.withhold_window
        assert lo <= report.first_flagged_at <= hi

    def test_partition_of_f_servers_is_not_flagged(self):
        # Isolating exactly f servers leaves k reachable — a transient
        # availability dip the protocol tolerates.  Flagging it would be a
        # false positive.
        cluster, applied, pool = audited_cluster("partition:2:2:60")
        cluster.run()
        assert not applied.objects[0].below_k
        report = pool.clients[0].report()
        assert not report.flagged
        assert report.min_estimate == K

    def test_benign_run_never_flags(self):
        cluster, _, pool = audited_cluster("none")
        cluster.run()
        report = pool.clients[0].report()
        assert not report.flagged
        assert report.min_estimate == N
        assert report.responses == report.probes_sent

    def test_crash_within_f_is_not_flagged(self):
        cluster, applied, pool = audited_cluster("crash:2:1:2:0.1")
        cluster.run()
        assert len(applied.objects[0].crashed) == F
        report = pool.clients[0].report()
        assert not report.flagged
        assert report.min_estimate >= K

    def test_flag_clears_after_heal(self):
        cluster, _, pool = audited_cluster("withhold:1:2:12", rounds=12)
        cluster.run()
        report = pool.clients[0].report()
        assert report.flagged
        assert not report.unrecoverable_at_end
        assert report.last_cleared_at is not None
        assert report.last_cleared_at > report.first_flagged_at

    def test_rounds_bound_quiesces_simulation(self):
        cluster, _, pool = audited_cluster("none", rounds=3)
        cluster.run(max_events=50_000)
        assert pool.clients[0].report().rounds == 3


class TestAuditPlumbing:
    def test_probes_are_cost_free(self):
        assert AuditProbeRequest(probe_id=0, reply_to="c0").data_units == 0.0
        assert AuditProbeResponse(probe_id=0, server="s0").data_units == 0.0

    def test_audit_traffic_does_not_perturb_data_units(self):
        bare = SodaCluster(n=N, f=F, num_writers=1, num_readers=1, seed=3)
        bare.write(b"v" * 16)
        bare.run()
        audited = SodaCluster(n=N, f=F, num_writers=1, num_readers=1, seed=3)
        pool = AuditPool(
            audited.sim,
            [(0, "", audited.server_ids)],
            k=audited.code.k,
            config=AuditConfig(sample=N, interval=2.5, confirm=2, rounds=4, start=1.0),
            seeds=[7],
        )
        pool.start()
        audited.write(b"v" * 16)
        audited.run()
        assert (
            audited.sim.network.stats.total_data_units
            == bare.sim.network.stats.total_data_units
        )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="sample"):
            AuditConfig(sample=0)
        with pytest.raises(ValueError, match="timeout"):
            AuditConfig(timeout=3.0, interval=2.5)
        with pytest.raises(ValueError, match="confirm"):
            AuditConfig(confirm=0)

    def test_sample_subset_still_converges(self):
        # Sampling s < n per round still confirms every withheld server
        # eventually — the streaks just take more rounds to accumulate.
        cluster, applied, pool = audited_cluster(
            "withhold:1:2:120",
            config=AuditConfig(sample=4, interval=2.5, confirm=2, rounds=40, start=1.0),
        )
        cluster.run()
        assert applied.objects[0].below_k
        assert pool.clients[0].report().flagged


# ----------------------------------------------------------------------
# the sampling oracle (SNIPPETS.md's DA sampling guarantee, applied to
# AuditClient): measured flag-by-round rates against the exact probability
# ----------------------------------------------------------------------
def flag_by_round(n, withholders, need, sample, confirm, rounds):
    """P(flagged by round R) for R = 1..rounds, exactly.

    Each round probes ``sample`` of the ``n`` servers, drawn without
    replacement (``AuditClient._probe_round``).  A persistent withholder
    misses every probe, so it is a suspect from its ``confirm``-th probed
    round on, and the register is flagged once ``need`` of the
    ``withholders`` are suspects.  The state is the withholders' probe
    counts capped at ``confirm`` (sorted: they are exchangeable); a given
    ``j`` of them are in one round's sample with probability
    ``C(n - w, sample - j) / C(n, sample)``.
    """
    total = math.comb(n, sample)
    draws = [
        (chosen, math.comb(n - withholders, sample - len(chosen)) / total)
        for size in range(min(sample, withholders) + 1)
        for chosen in itertools.combinations(range(withholders), size)
    ]
    states = {(0,) * withholders: 1.0}
    flagged = []
    for _ in range(rounds):
        following = defaultdict(float)
        for counts, p in states.items():
            for chosen, q in draws:
                after = list(counts)
                for i in chosen:
                    after[i] = min(after[i] + 1, confirm)
                following[tuple(sorted(after))] += p * q
        states = following
        flagged.append(
            sum(p for counts, p in states.items() if counts.count(confirm) >= need)
        )
    return flagged


def binomial_band(trials, p, tail=1e-6):
    """The counts ``[lo, hi]`` outside which ``Binomial(trials, p)`` lies with
    probability at most ``tail`` (half on each side)."""
    pmf = [math.comb(trials, x) * p**x * (1 - p) ** (trials - x) for x in range(trials + 1)]
    lo, below = 0, pmf[0]
    while below <= tail / 2:
        lo += 1
        below += pmf[lo]
    hi, above = trials, pmf[trials]
    while above <= tail / 2:
        hi -= 1
        above += pmf[hi]
    return lo, hi


def test_one_withholder_is_a_binomial_tail():
    """With ``w = 1``: ``1 - BinomCDF(confirm - 1; R, s/n)``."""
    n, sample, confirm = 6, 2, 3
    rate = sample / n
    for rounds, p in enumerate(flag_by_round(n, 1, 1, sample, confirm, 12), start=1):
        cdf = sum(
            math.comb(rounds, x) * rate**x * (1 - rate) ** (rounds - x)
            for x in range(confirm)
        )
        assert p == pytest.approx(1 - cdf, abs=1e-12)


def test_the_band_of_a_certain_outcome_is_exact():
    assert binomial_band(40, 0.0) == (0, 0)
    assert binomial_band(40, 1.0) == (40, 40)
    lo, hi = binomial_band(400, 0.5)
    assert lo < 200 < hi and 400 - hi == lo


@pytest.mark.parametrize(
    "sample, confirm, rounds, trials",
    [
        (2, 1, 8, 120),
        (3, 2, 10, 120),
        (4, 2, 8, 120),
        (5, 3, 8, 120),
        # Probing every server every round: the flag lands at exactly the
        # ``confirm``-th round, so confirm=3 flags one interval after 2.
        (N, 2, 8, 4),
        (N, 3, 8, 4),
    ],
)
def test_flag_by_round_matches_the_sampling_oracle(sample, confirm, rounds, trials):
    """Over seeded audit pools, the share flagged by each round sits inside
    the 1e-6 binomial band of the exact probability.  ``withhold:1`` keeps
    ``n - k + 1`` servers withholding from before the first probe to past
    the last, and the flag needs every one of them suspected."""
    trials *= FUZZ_FACTOR
    config = AuditConfig(sample=sample, interval=2.5, confirm=confirm, rounds=rounds, start=1.0)
    withholders = (N - K) + 1
    flagged_at = []
    for trial in range(trials):
        cluster = SodaCluster(n=N, f=F, num_writers=1, num_readers=1, seed=0)
        applied = cluster.apply_fault_plan("withhold:1:0.5:1000", seed=0)
        assert len(applied.objects[0].withheld) == withholders
        pool = AuditPool(
            cluster.sim,
            [(0, "", cluster.server_ids)],
            k=cluster.code.k,
            config=config,
            seeds=[FUZZ_SEED + trial],
        )
        pool.start()
        cluster.run()
        report = pool.clients[0].report()
        assert report.rounds == rounds
        # Only withholders miss probes, so only they are ever suspected.
        assert report.min_estimate >= N - withholders
        first = report.first_flagged_at
        # A round's verdict lands ``timeout`` after its probes go out.
        flagged_at.append(
            None if first is None else round((first - config.start - config.timeout) / config.interval) + 1
        )
    expected = flag_by_round(N, withholders, withholders, sample, confirm, rounds)
    for r, p in enumerate(expected, start=1):
        count = sum(1 for at in flagged_at if at is not None and at <= r)
        lo, hi = binomial_band(trials, p)
        assert lo <= count <= hi, (
            f"round {r}: {count}/{trials} flagged, exact p = {p:.4f}, band [{lo}, {hi}]"
        )
