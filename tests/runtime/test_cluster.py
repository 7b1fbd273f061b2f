"""Tests for the protocol-independent cluster façade."""

import pytest

from crash_client import crash_client

from repro.core.soda.cluster import SodaCluster
from repro.baselines.abd import AbdCluster
from repro.sim.failures import CrashSchedule
from repro.sim.simulation import SimulationError


class TestLookups:
    def test_writer_reader_server_by_index_and_name(self):
        c = SodaCluster(n=4, f=1, num_writers=2, num_readers=2)
        assert c.writer(1).pid == "w1"
        assert c.writer("w0").pid == "w0"
        assert c.reader(0).pid == "r0"
        assert c.server(3).pid == "s3"
        assert c.server("s2").pid == "s2"


class TestScheduling:
    def test_scheduled_operation_handle_filled(self):
        c = SodaCluster(n=4, f=1, seed=3)
        handle = c.schedule_write(1.0, b"scheduled")
        assert handle.op_id is None
        c.run()
        assert handle.op_id is not None
        assert c.history.get(handle.op_id).value == b"scheduled"

    def test_busy_client_retries_until_free(self):
        """Two writes scheduled at the same instant on the same writer both
        complete (the second waits for the first)."""
        c = SodaCluster(n=4, f=1, seed=4)
        h1 = c.schedule_write(1.0, b"first")
        h2 = c.schedule_write(1.0, b"second")
        c.run()
        assert h1.op_id is not None and h2.op_id is not None
        assert len(c.history.complete_operations()) == 2

    def test_scheduled_op_on_crashed_client_is_skipped(self):
        c = SodaCluster(n=4, f=1, num_writers=2, seed=5)
        crash_client(c, "w1", at_time=0.5)
        handle = c.schedule_write(1.0, b"never", writer=1)
        c.run()
        assert handle.op_id is None

    def test_crash_unknown_client_rejected(self):
        c = SodaCluster(n=4, f=1)
        with pytest.raises(ValueError, match="unknown client 'nobody'"):
            crash_client(c, "nobody", at_time=1.0)

    def test_crash_schedule_over_f_rejected(self):
        c = SodaCluster(n=4, f=1)
        with pytest.raises(ValueError):
            c.apply_crash_schedule(CrashSchedule().add("s0", 1.0).add("s1", 1.0))

    def test_crash_budget_is_per_cluster_not_per_call(self):
        # Regression: each call used to count only its own victims, so two
        # within-f schedules armed 2f server crashes without an error.
        c = SodaCluster(n=6, f=2)
        c.apply_crash_schedule(CrashSchedule().add("s0", 1.0).add("s1", 1.0))
        with pytest.raises(ValueError, match="more than f=2"):
            c.apply_crash_schedule(CrashSchedule().add("s2", 1.0).add("s3", 1.0))
        assert [e.pid for e in c.failures.injected] == ["s0", "s1"]

        c = SodaCluster(n=6, f=2)
        c.apply_fault_plan("crash:2", seed=1)
        with pytest.raises(ValueError, match="more than f=2"):
            c.apply_fault_plan("crash:2", seed=2)

    def test_second_schedule_within_f_in_total_is_accepted(self):
        c = SodaCluster(n=6, f=2, num_writers=2)
        c.apply_crash_schedule(CrashSchedule().add("s0", 1.0))
        c.apply_crash_schedule(CrashSchedule().add("s1", 2.0).add("w1", 2.0))
        assert [e.pid for e in c.failures.injected] == ["s0", "s1", "w1"]

    def test_run_until_complete_times_out_cleanly(self):
        """If an operation can never complete (too many servers crashed by an
        external actor), the façade surfaces a SimulationError rather than
        hanging."""
        c = SodaCluster(n=4, f=1, seed=6)
        # Crash beyond the tolerated bound by driving the injector directly
        # (bypassing the f-bound check) to model an out-of-model catastrophe.
        for s in range(3):
            c.failures.crash_at(f"s{s}", 0.0)
        op_id = c.writer(0).start_write(b"doomed")
        with pytest.raises(SimulationError):
            c.run_until_complete(op_id)


class TestCrossProtocolApi:
    @pytest.mark.parametrize("cls", [SodaCluster, AbdCluster])
    def test_same_api_shape(self, cls):
        c = cls(n=5, f=2, seed=7)
        w = c.write(b"api")
        r = c.read()
        assert r.value == b"api"
        assert c.operation_cost(w.op_id) > 0
        assert c.storage_peak() > 0


class TestRunStreamed:
    def test_closed_loop_issues_exact_budget(self):
        from repro.consistency.history import History

        c = SodaCluster(n=5, f=2, num_writers=2, num_readers=2, seed=4)
        stats = c.run_streamed(operations=30, seed=1)
        assert stats.requested == 30
        assert stats.issued == 30
        assert stats.completed == 30
        assert stats.failed == 0
        assert stats.writes + stats.reads == 30
        assert stats.issued == stats.completed + stats.failed
        assert stats.events > 0
        # The default sink is the keep-everything History; every op landed.
        assert isinstance(c.history, History)
        assert c.history.completed_count == 30

    def test_deterministic_for_a_seed(self):
        def run(seed):
            c = SodaCluster(n=5, f=2, num_writers=2, num_readers=2, seed=8)
            s = c.run_streamed(operations=25, seed=seed)
            ops = tuple(
                (op.op_id, op.kind, op.invoked_at, op.responded_at)
                for op in c.history.operations()
            )
            return s.end_time, s.events, ops

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_write_values_are_unique_and_prefixed(self):
        c = SodaCluster(n=5, f=2, num_writers=2, num_readers=1, seed=2)
        c.run_streamed(operations=20, seed=5, value_prefix="e7|", value_size=24)
        values = [op.value for op in c.history.writes()]
        assert values
        assert len(set(values)) == len(values)
        assert all(v.startswith(b"e7|#") for v in values)
        assert all(len(v) == 24 for v in values)

    def test_writer_crash_drops_out_of_the_loop(self):
        c = SodaCluster(n=5, f=2, num_writers=1, num_readers=1, seed=6)
        crash_client(c, "w0", at_time=5.0)
        stats = c.run_streamed(operations=200, seed=9)
        # The lone writer died early: writes stop, the surviving reader
        # absorbs the remaining budget and the run terminates cleanly.
        assert stats.issued == 200
        assert stats.writes < 10
        assert stats.failed <= 1
        assert stats.completed + stats.failed == stats.issued

    def test_all_clients_crashed_leaves_budget_unconsumed(self):
        c = SodaCluster(n=5, f=2, num_writers=1, num_readers=1, seed=6)
        crash_client(c, "w0", at_time=5.0)
        crash_client(c, "r0", at_time=5.0)
        stats = c.run_streamed(operations=200, seed=9)
        # Nobody is left to issue operations: the loop winds down instead
        # of hanging, with the unissued budget simply abandoned.
        assert stats.issued < 200
        assert stats.completed + stats.failed <= stats.issued

    def test_validation(self):
        c = SodaCluster(n=5, f=2, seed=1)
        with pytest.raises(ValueError, match="operations cannot be negative"):
            c.run_streamed(operations=-1)
        with pytest.raises(ValueError, match="non-negative"):
            c.run_streamed(operations=1, mean_gap=-0.5)
        stats = c.run_streamed(operations=0)
        assert stats.issued == 0

    def test_budget_slot_reassigned_from_crashed_client(self):
        """A budget slot handed to an already-crashed client must move to
        the next live client instead of being silently dropped."""
        c = SodaCluster(n=5, f=2, num_writers=1, num_readers=1, seed=6)
        crash_client(c, "w0", at_time=0.0)  # dead before the kickoff fires
        stats = c.run_streamed(operations=1, seed=2)
        assert stats.issued == 1
        assert stats.reads == 1  # the surviving reader took the slot

    def test_repeated_runs_do_not_accumulate_observers(self):
        c = SodaCluster(n=5, f=2, seed=3)
        before = len(c.history._observers)
        c.run_streamed(operations=5, seed=1)
        c.run_streamed(operations=5, seed=2)
        assert len(c.history._observers) == before

    def test_external_operations_do_not_perturb_stats(self):
        """Completions of ops scheduled outside the closed loop must not
        leak into the run's accounting or trigger extra issues."""
        c = SodaCluster(n=5, f=2, seed=3)
        c.schedule_write(0.5, b"external")
        stats = c.run_streamed(operations=10, seed=1)
        assert stats.issued == 10
        assert stats.completed == 10
        assert stats.issued == stats.completed + stats.failed
