"""Tests for the Table I regeneration harness."""

import pytest

from repro.analysis.tables import format_table, generate_table1
from repro.analysis.theoretical import soda_write_cost_bound
from repro.baselines.registry import make_cluster
from tests.golden.capture_goldens import GOLDEN_DIR, table1_stdout


@pytest.fixture(scope="module")
def table_entries():
    return generate_table1(n=6, delta=2, seed=3)


class TestGenerateTable1:
    def test_three_rows(self, table_entries):
        assert [e.algorithm for e in table_entries] == ["ABD", "CASGC", "SODA"]
        assert all(e.n == 6 and e.f == 2 for e in table_entries)

    def test_measured_within_predictions(self, table_entries):
        by_name = {e.algorithm: e for e in table_entries}
        abd, casgc, soda = by_name["ABD"], by_name["CASGC"], by_name["SODA"]
        # ABD: write and storage exactly n; read is O(n) (includes write-back).
        assert abd.measured_write_cost == pytest.approx(6.0)
        assert abd.measured_storage_cost == pytest.approx(6.0)
        assert abd.measured_read_cost <= 2 * 6
        # CASGC: communication n/(n-2f), storage <= (delta+1) n/(n-2f).
        assert casgc.measured_write_cost == pytest.approx(casgc.predicted_write_cost)
        assert casgc.measured_read_cost <= casgc.predicted_read_cost + 1e-9
        assert casgc.measured_storage_cost <= casgc.predicted_storage_cost + 1e-9
        # SODA: all measured values below the paper's worst-case predictions.
        assert soda.measured_write_cost <= soda.predicted_write_cost + 1e-9
        assert soda.measured_read_cost <= soda.predicted_read_cost + 1e-9
        assert soda.measured_storage_cost == pytest.approx(soda.predicted_storage_cost)

    def test_paper_ordering_preserved(self, table_entries):
        """The qualitative comparison the paper draws: SODA stores by far the
        least; the coded protocols beat ABD on communication; SODA pays for
        its storage advantage with a higher write cost than CASGC."""
        by_name = {e.algorithm: e for e in table_entries}
        soda, casgc, abd = by_name["SODA"], by_name["CASGC"], by_name["ABD"]
        assert soda.measured_storage_cost < casgc.measured_storage_cost
        assert soda.measured_storage_cost < abd.measured_storage_cost
        assert casgc.measured_write_cost < abd.measured_write_cost
        assert casgc.measured_read_cost < abd.measured_read_cost
        assert soda.measured_write_cost > casgc.measured_write_cost

    def test_format_table(self, table_entries):
        text = format_table(table_entries)
        assert "Algorithm" in text
        assert "SODA" in text and "CASGC" in text and "ABD" in text
        assert len(text.splitlines()) == 5

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            generate_table1(n=5)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_table1_claims_at_f_max(n):
    """Table I at ``f = f_max = n/2 - 1``, CASGC ``delta = 2``: the paper's
    qualitative claims hold on the measured numbers."""
    by_name = {e.algorithm: e for e in generate_table1(n=n, delta=2, seed=2024)}
    soda, casgc, abd = by_name["SODA"], by_name["CASGC"], by_name["ABD"]
    assert all(e.f == n // 2 - 1 for e in by_name.values())
    assert soda.measured_storage_cost < casgc.measured_storage_cost
    assert soda.measured_storage_cost < abd.measured_storage_cost
    assert soda.measured_storage_cost <= 2.0 + 1e-9
    assert casgc.measured_write_cost < abd.measured_write_cost
    assert soda.measured_write_cost <= soda.predicted_write_cost


@pytest.mark.parametrize("n", [4, 6, 8])
def test_every_measured_cost_is_within_its_prediction(n):
    """Every cell of Table I: the measured cost is at most the predicted
    worst case (an ABD read pays for its write-back: ``2n``)."""
    for entry in generate_table1(n=n, delta=2, seed=0):
        for cost in ("write", "read", "storage"):
            measured = getattr(entry, f"measured_{cost}_cost")
            predicted = getattr(entry, f"predicted_{cost}_cost")
            assert measured <= predicted + 1e-9, (entry.algorithm, cost, measured, predicted)


def test_soda_write_at_f_zero_is_within_its_bound():
    """``f = 0``: the one dispersal server sends the other ``n - 1`` servers
    a coded element each, on top of the writer's full value."""
    cluster = make_cluster("SODA", 3, 0, seed=0)
    write = cluster.write(b"hello from the SODA reproduction")
    cluster.run()
    assert cluster.operation_cost(write.op_id) == pytest.approx(5 / 3)
    assert cluster.operation_cost(write.op_id) <= soda_write_cost_bound(3, 0) + 1e-9
    soda = generate_table1(n=2, seed=0)[2]
    assert (soda.algorithm, soda.f) == ("SODA", 0)
    assert "1.50/1.50" in format_table([soda])


def test_table1_stdout_matches_the_golden():
    """``table1 --n 6 --seed 0`` prints, byte for byte, what it printed when
    the golden was captured (measured costs, predictions and layout)."""
    golden = (GOLDEN_DIR / "table1_n6_seed0.txt").read_text()
    assert table1_stdout() == golden
