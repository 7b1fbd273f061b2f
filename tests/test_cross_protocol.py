"""Cross-protocol property tests.

All five protocols implement the same abstraction — an atomic MWMR register
— so any sequential program must observe identical values on every one of
them, while their costs must respect the ordering the paper establishes.
Hypothesis generates the programs.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.abd import AbdCluster
from repro.baselines.casgc import CasGcCluster
from repro.consistency.wgl import check_linearizability
from repro.core.soda.cluster import SodaCluster
from repro.core.sodaerr.cluster import SodaErrCluster

# A sequential program: a list of operations, each either a write (with a
# payload index) or a read.
programs = st.lists(
    st.one_of(st.tuples(st.just("write"), st.integers(0, 99)), st.just(("read", 0))),
    min_size=1,
    max_size=8,
)


def run_program(cluster, program):
    """Run a sequential program; returns the list of read results."""
    observed = []
    counter = 0
    for kind, payload in program:
        if kind == "write":
            counter += 1
            cluster.write(f"value-{payload}-{counter}".encode())
        else:
            observed.append(cluster.read().value)
    cluster.run()
    return observed


def expected_results(program):
    """Reference semantics of a sequential register program."""
    current = b""
    out = []
    counter = 0
    for kind, payload in program:
        if kind == "write":
            counter += 1
            current = f"value-{payload}-{counter}".encode()
        else:
            out.append(current)
    return out


class TestSequentialEquivalence:
    @given(program=programs)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_soda_matches_reference(self, program):
        cluster = SodaCluster(n=5, f=2, seed=3)
        assert run_program(cluster, program) == expected_results(program)

    @given(program=programs)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_all_protocols_agree(self, program):
        reference = expected_results(program)
        clusters = [
            SodaCluster(n=5, f=2, seed=4),
            SodaErrCluster(n=7, f=2, e=1, seed=4),
            AbdCluster(n=5, f=2, seed=4),
            CasGcCluster(n=6, f=2, delta=2, seed=4),
        ]
        for cluster in clusters:
            assert run_program(cluster, program) == reference, cluster.protocol_name

    @given(program=programs)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_sequential_histories_linearizable(self, program):
        cluster = SodaCluster(n=5, f=2, seed=5)
        run_program(cluster, program)
        assert check_linearizability(cluster.history, initial_value=b"")


class TestCostOrdering:
    @given(n=st.sampled_from([6, 8, 10]))
    @settings(max_examples=6, deadline=None)
    def test_storage_ordering_soda_beats_everyone(self, n):
        """Theorem 5.3 vs Table I: SODA stores least for the same (n, f)."""
        f = n // 2 - 1
        soda = SodaCluster(n=n, f=f, seed=1)
        abd = AbdCluster(n=n, f=f, seed=1)
        casgc = CasGcCluster(n=n, f=f, delta=1, seed=1)
        for c in (soda, abd, casgc):
            for i in range(3):
                c.write(f"v{i}".encode())
            c.read()
            c.run()
        assert soda.storage_peak() < abd.storage_peak()
        assert soda.storage_peak() < casgc.storage_peak()
        assert soda.storage_peak() <= 2.0 + 1e-9

    def test_write_cost_ordering_casgc_beats_soda(self):
        """The flip side of the trade-off: SODA pays more per write."""
        n, f = 8, 3
        soda = SodaCluster(n=n, f=f, seed=2)
        casgc = CasGcCluster(n=n, f=f, delta=1, seed=2)
        w_soda = soda.write(b"payload")
        w_casgc = casgc.write(b"payload")
        soda.run()
        casgc.run()
        assert soda.operation_cost(w_soda.op_id) > casgc.operation_cost(w_casgc.op_id)
