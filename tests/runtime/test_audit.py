"""Tests for availability-audit reads against planted fault plans."""

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
        report = pool.reports()[0]
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
        report = pool.reports()[0]
        assert not report.flagged
        assert report.min_estimate == K

    def test_benign_run_never_flags(self):
        cluster, _, pool = audited_cluster("none")
        cluster.run()
        report = pool.reports()[0]
        assert not report.flagged
        assert report.min_estimate == N
        assert report.responses == report.probes_sent

    def test_crash_within_f_is_not_flagged(self):
        cluster, applied, pool = audited_cluster("crash:2:1:2:0.1")
        cluster.run()
        assert len(applied.objects[0].crashed) == F
        report = pool.reports()[0]
        assert not report.flagged
        assert report.min_estimate >= K

    def test_flag_clears_after_heal(self):
        cluster, _, pool = audited_cluster("withhold:1:2:12", rounds=12)
        cluster.run()
        report = pool.reports()[0]
        assert report.flagged
        assert not report.unrecoverable_at_end
        assert report.last_cleared_at is not None
        assert report.last_cleared_at > report.first_flagged_at

    def test_confirmation_streak_delays_flag(self):
        # confirm=3 needs one more consecutive missed round than confirm=2
        # before suspecting, so the flag lands one interval later.
        flags = {}
        for confirm in (2, 3):
            cluster, _, pool = audited_cluster(
                "withhold:1:0.5:60",
                config=AuditConfig(
                    sample=N, interval=2.5, confirm=confirm, rounds=8, start=1.0
                ),
            )
            cluster.run()
            flags[confirm] = pool.reports()[0].first_flagged_at
        assert flags[2] is not None and flags[3] is not None
        assert flags[3] == pytest.approx(flags[2] + 2.5)

    def test_rounds_bound_quiesces_simulation(self):
        cluster, _, pool = audited_cluster("none", rounds=3)
        cluster.run(max_events=50_000)
        assert pool.reports()[0].rounds == 3


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
        assert pool.reports()[0].flagged
