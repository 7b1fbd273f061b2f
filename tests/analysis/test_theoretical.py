"""Tests for the closed-form cost expressions."""

import pytest

from repro.analysis import theoretical as th


class TestSodaFormulas:
    def test_storage_cost(self):
        assert th.soda_storage_cost(10, 5) == pytest.approx(2.0)
        assert th.soda_storage_cost(6, 2) == pytest.approx(1.5)

    def test_storage_cost_invalid(self):
        with pytest.raises(ValueError):
            th.soda_storage_cost(4, 4)
        with pytest.raises(ValueError):
            th.soda_storage_cost(0, 0)
        with pytest.raises(ValueError):
            th.soda_storage_cost(4, -1)

    def test_write_cost_bound(self):
        assert th.soda_write_cost_bound(5, 2) == 20.0
        assert th.soda_write_cost_bound(11, 5) == 125.0
        assert th.soda_write_cost_bound(4, 0) == 1.75

    def test_read_cost(self):
        assert th.soda_read_cost(6, 2, 0) == pytest.approx(1.5)
        assert th.soda_read_cost(6, 2, 3) == pytest.approx(6.0)
        with pytest.raises(ValueError):
            th.soda_read_cost(6, 2, -1)

    def test_latency_bounds(self):
        assert th.soda_write_latency_bound(2.0) == 10.0
        assert th.soda_read_latency_bound(2.0) == 12.0


class TestSodaErrFormulas:
    def test_storage(self):
        assert th.sodaerr_storage_cost(10, 2, 2) == pytest.approx(10 / 4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            th.sodaerr_storage_cost(5, 2, 2)
        with pytest.raises(ValueError):
            th.sodaerr_storage_cost(5, 2, -1)

    def test_read_and_write(self):
        assert th.sodaerr_read_cost(10, 2, 2, 1) == pytest.approx(5.0)
        assert th.sodaerr_write_cost_bound(10, 2, 2) == 20.0


class TestBaselineFormulas:
    def test_abd(self):
        assert th.abd_storage_cost(7) == 7.0
        assert th.abd_write_cost(7) == 7.0
        assert th.abd_read_cost(7) == 14.0

    def test_cas(self):
        assert th.cas_communication_cost(8, 2) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            th.cas_communication_cost(4, 2)

    def test_casgc_storage(self):
        assert th.casgc_storage_cost(6, 2, 2) == pytest.approx(9.0)
        with pytest.raises(ValueError):
            th.casgc_storage_cost(6, 2, -1)

class TestTableOne:
    def test_f_max(self):
        assert th.f_max(6) == 2
        assert th.f_max(10) == 4
        assert th.f_max(7) == 3

    def test_rows_match_paper_shape(self):
        """For n even and f = n/2 - 1, the paper's Table I reads:
        ABD (n, n, n); CASGC (n/2, n/2, n/2 (delta+1)); SODA (O(n^2),
        <= 2(delta_w+1), <= 2)."""
        n, delta, delta_w = 10, 2, 3
        rows = {r.algorithm: r for r in th.table1_rows(n, delta, delta_w)}
        assert rows["ABD"].write_cost == n
        assert rows["ABD"].storage_cost == n
        assert rows["CASGC"].write_cost == pytest.approx(n / 2)
        assert rows["CASGC"].storage_cost == pytest.approx(n / 2 * (delta + 1))
        assert rows["SODA"].storage_cost <= 2.0
        assert rows["SODA"].read_cost <= 2.0 * (delta_w + 1)
        assert rows["SODA"].write_cost == pytest.approx(5 * (n // 2 - 1) ** 2)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            th.table1_rows(7, 1, 1)
