"""Property-based and differential fuzzing of the checker stack.

Four independent deciders of register linearizability live in this
repository: the exhaustive WGL search, the single-stream incremental
checker (flat-array core), the shard-merge path (per-shard incremental
checkers in ``defer`` mode reconciled by :func:`check_history_sharded`),
and the retired pre-flat-core implementation kept verbatim as
:class:`reference_incremental.ReferenceAtomicityChecker`.  They share no
code on their decision paths, so agreement on thousands of randomized
histories — clean, corrupted, and seeded with specific violation shapes —
is strong evidence each is right.  Against the reference the suite
demands more than verdict agreement: the flat core must be
*byte-identical* in violations, cluster summaries, reopen counts and
duplicate-write claims.

The generator produces histories that are linearizable by construction
(operations take effect at sampled linearization points), then optionally
injects a violation: a phantom (never written) read value, a swap of one
read's value with another write's, a read that responds before its write
is invoked, or a duplicated write value.  Corruption does not always make
a history non-linearizable (a swap can be masked by concurrency), which
is exactly the point — the three verdicts must agree either way.
"""

import os
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_incremental import ReferenceAtomicityChecker
from sharded_check import check_history_sharded

from repro.consistency.history import READ, WRITE, History
from repro.consistency.incremental import (
    IncrementalAtomicityChecker,
    check_history_incrementally,
    replay_operations,
)
from repro.consistency.wgl import check_linearizability

#: Every comparison runs under both executors of the incremental checker
#: (``twin`` in tests/conftest.py): its compiled core, and the Python methods.
TWINS = ("checker core",)
pytestmark = pytest.mark.usefixtures("twin")

SHARD_COUNTS = (1, 2, 3)

#: Nightly-fuzz knobs (see .github/workflows/nightly-fuzz.yml): FUZZ_FACTOR
#: multiplies every generated-case count, FUZZ_SEED shifts the generators
#: into fresh territory.  Defaults keep the CI-sized deterministic run.
FUZZ_FACTOR = int(os.environ.get("FUZZ_FACTOR", "1"))
FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))


def fuzz_seed(label: str) -> int:
    """A stable per-suite seed (crc32, not ``hash``: the latter is salted
    per interpreter, which would make failures unreproducible)."""
    return (FUZZ_SEED + zlib.crc32(label.encode())) % 2**32


def build_history(
    rng,
    *,
    clients=3,
    ops_per_client=4,
    write_fraction=0.5,
    incomplete_fraction=0.1,
    inject=None,
):
    """A random well-formed history, linearizable unless ``inject`` says
    otherwise (and even then only usually — see the module docstring)."""
    ops = []
    for client in range(clients):
        t = float(rng.uniform(0, 2))
        for i in range(ops_per_client):
            duration = float(rng.uniform(0.2, 3.0))
            kind = WRITE if rng.random() < write_fraction else READ
            ops.append(
                {
                    "op_id": f"c{client}o{i}",
                    "kind": kind,
                    "client": f"c{client}",
                    "inv": t,
                    "resp": t + duration,
                    "lin": t + float(rng.uniform(0.0, duration)),
                }
            )
            t += duration + float(rng.uniform(0.01, 1.0))
    value = b""
    sequence = 0
    for op in sorted(ops, key=lambda o: o["lin"]):
        if op["kind"] == WRITE:
            value = f"v{sequence}".encode()
            sequence += 1
            op["value"] = value
        else:
            op["value"] = value

    history = History()
    for op in sorted(ops, key=lambda o: o["inv"]):
        history.invoke(
            op["op_id"],
            op["kind"],
            op["client"],
            op["inv"],
            value=op["value"] if op["kind"] == WRITE else None,
        )
    for op in sorted(ops, key=lambda o: o["resp"]):
        if rng.random() < incomplete_fraction:
            continue
        history.respond(
            op["op_id"],
            op["resp"],
            value=None if op["kind"] == WRITE else op["value"],
        )

    if inject is not None:
        reads = [o for o in history.operations() if o.kind == READ and o.is_complete]
        writes = [o for o in history.operations() if o.kind == WRITE]
        if inject == "phantom" and reads:
            victim = reads[int(rng.integers(0, len(reads)))]
            victim.value = b"\xffphantom\xff"
        elif inject == "swap" and reads and writes:
            victim = reads[int(rng.integers(0, len(reads)))]
            victim.value = writes[int(rng.integers(0, len(writes)))].value
        elif inject == "future" and reads:
            victim = reads[int(rng.integers(0, len(reads)))]
            later = [
                w for w in writes if w.invoked_at > victim.responded_at
            ]
            if later:
                victim.value = later[0].value
        elif inject == "duplicate" and len(writes) >= 2:
            writes[-1].value = writes[0].value
    return history


def checker_export(checker):
    """Everything a checker decides, as one comparable tuple."""
    return (
        checker.ok,
        tuple(checker.violations),
        tuple(checker.duplicate_write_claims),
        checker.reopened_clusters,
        tuple(checker.cluster_summaries()),
    )


def verdicts(history):
    """(wgl, incremental, sharded ...) verdicts; wgl None if inapplicable.

    En route, differentially replays the history through the retired
    reference checker (byte-identical export required).
    """
    try:
        wgl = bool(check_linearizability(history, initial_value=b""))
    except ValueError:
        wgl = None  # duplicate write values: outside WGL's contract
    flat = replay_operations(
        IncrementalAtomicityChecker(), history.operations()
    )
    incremental = bool(flat.result())

    reference = replay_operations(
        ReferenceAtomicityChecker(), history.operations()
    )
    assert checker_export(reference) == checker_export(flat)

    sharded = [
        bool(check_history_sharded(history, shards=s, initial_value=b""))
        for s in SHARD_COUNTS
    ]
    return wgl, incremental, sharded


class TestDifferentialFuzz:
    """The acceptance sweep: thousands of generated cases, three deciders."""

    @pytest.mark.parametrize(
        "inject,cases",
        [
            (None, 700),
            ("phantom", 300),
            ("swap", 500),
            ("future", 300),
            ("duplicate", 200),
        ],
    )
    def test_all_checkers_agree(self, inject, cases):
        cases = cases * FUZZ_FACTOR
        seed = fuzz_seed(inject or "clean")
        rng = np.random.default_rng(seed)
        checked = 0
        violations_seen = 0
        for trial in range(cases):
            history = build_history(
                rng,
                clients=int(rng.integers(2, 5)),
                ops_per_client=int(rng.integers(3, 6)),
                write_fraction=float(rng.uniform(0.3, 0.7)),
                incomplete_fraction=float(rng.choice([0.0, 0.1, 0.25])),
                inject=inject,
            )
            wgl, incremental, sharded = verdicts(history)
            if wgl is not None:
                assert incremental == wgl, f"{inject} trial {trial} (seed {seed})"
            else:
                # Duplicate write values: both streaming paths must reject.
                assert not incremental, f"{inject} trial {trial} (seed {seed})"
            for shards, verdict in zip(SHARD_COUNTS, sharded):
                assert verdict == incremental, (
                    f"{inject} trial {trial} (seed {seed}): "
                    f"shards={shards} disagreed"
                )
            checked += 1
            violations_seen += not incremental
        assert checked == cases
        if inject in ("phantom", "future", "duplicate"):
            # These injections virtually always break atomicity; make sure
            # the suite is not silently generating trivially clean cases.
            assert violations_seen > cases // 2

    def test_at_least_two_thousand_cases_total(self):
        """Documentation of the acceptance floor: the parametrized sweep
        above checks 700+300+500+300+200 = 2000 generated histories, each
        against WGL, the incremental checker and three shard counts."""
        total = 700 + 300 + 500 + 300 + 200
        assert total >= 2000


class TestFlatCoreDifferential:
    """Stress the flat core's interesting regimes against the reference.

    The default-configuration comparison rides inside :func:`verdicts`
    on every fuzz case above; this class forces the paths that a
    256-cluster frontier never reaches on small histories — cluster
    closure and reopening (tiny frontier limits), the dirty-overlay /
    compaction machinery (tiny ``_EAGER_TAIL`` / ``_DIRTY_LIMIT``), and
    the mid-table insert fallback (events fed out of stream order) —
    and additionally runs the core's internal invariant audit.
    """

    @pytest.mark.parametrize("frontier_limit", [2, 4])
    @pytest.mark.parametrize(
        "inject", [None, "phantom", "swap", "future", "duplicate"]
    )
    def test_tiny_frontiers_match_reference(self, inject, frontier_limit):
        cases = 60 * FUZZ_FACTOR
        rng = np.random.default_rng(
            fuzz_seed(f"flatcore-{inject}-{frontier_limit}")
        )
        for trial in range(cases):
            history = build_history(
                rng,
                clients=int(rng.integers(2, 5)),
                ops_per_client=int(rng.integers(3, 7)),
                write_fraction=float(rng.uniform(0.3, 0.7)),
                incomplete_fraction=float(rng.choice([0.0, 0.1])),
                inject=inject,
            )
            flat = replay_operations(
                IncrementalAtomicityChecker(frontier_limit=frontier_limit),
                history.operations(),
            )
            flat._audit()
            reference = replay_operations(
                ReferenceAtomicityChecker(frontier_limit=frontier_limit),
                history.operations(),
            )
            assert checker_export(reference) == checker_export(flat), (
                f"{inject} trial {trial} frontier={frontier_limit}"
            )

    def test_tight_overlay_thresholds_match_reference(self, monkeypatch):
        """Force the dirty-overlay and compaction paths on every a-growth
        by shrinking the eager-tail window to one slot."""
        import repro.consistency.incremental as incremental_module

        monkeypatch.setattr(incremental_module, "_EAGER_TAIL", 1)
        monkeypatch.setattr(incremental_module, "_DIRTY_LIMIT", 2)
        cases = 120 * FUZZ_FACTOR
        rng = np.random.default_rng(fuzz_seed("flatcore-overlay"))
        for trial in range(cases):
            inject = rng.choice([None, "swap", "phantom"])
            history = build_history(rng, inject=inject)
            flat = replay_operations(
                IncrementalAtomicityChecker(frontier_limit=4),
                history.operations(),
            )
            flat._audit()
            reference = replay_operations(
                ReferenceAtomicityChecker(frontier_limit=4),
                history.operations(),
            )
            assert checker_export(reference) == checker_export(flat), (
                f"{inject} trial {trial}"
            )

    @pytest.mark.parametrize("aliased", [True, False])
    def test_read_value_memo_matches_reference(self, monkeypatch, aliased):
        """The read-value memo at its most exposed: consulted for every
        size, two entries so writes evict all the time, every operation
        carrying its own copy of the bytes, and (``aliased``) every value of
        one length with one head and one tail, so the fingerprint never
        tells two apart.  The reference has no memo: it digests every value."""
        import repro.consistency.incremental as incremental_module

        digests = []
        digest = incremental_module._value_key
        monkeypatch.setattr(
            incremental_module,
            "_value_key",
            lambda value: digests.append(1) or digest(value),
        )
        monkeypatch.setattr(incremental_module, "_MEMO_MIN_BYTES", 0)
        monkeypatch.setattr(incremental_module, "_MEMO_ENTRIES", 2)
        cases = 60 * FUZZ_FACTOR
        rng = np.random.default_rng(fuzz_seed(f"flatcore-memo-{aliased}"))
        valued = 0
        for trial in range(cases):
            inject = rng.choice([None, "phantom", "swap", "future", "duplicate"])
            history = build_history(rng, inject=inject)
            for op in history.operations():
                if op.value:  # the initial value stays the checker's b""
                    valued += 1
                    op.value = bytes(bytearray(op.value))
                    if aliased:
                        op.value = b"HEADHEAD" + op.value.rjust(16, b".") + b"TAILTAIL"
            flat = replay_operations(
                IncrementalAtomicityChecker(), history.operations()
            )
            reference = replay_operations(
                ReferenceAtomicityChecker(), history.operations()
            )
            assert checker_export(reference) == checker_export(flat), (
                f"{inject} trial {trial}"
            )
        # ... and the memo did serve reads while agreeing.
        assert len(digests) < valued

    def test_scrambled_event_order_matches_reference(self):
        """Out-of-stream-order feeds hit the mid-table insert fallback:
        the interval table must stay sorted (audited) and the exports must
        still match the reference fed the same scrambled sequence."""
        cases = 80 * FUZZ_FACTOR
        rng = np.random.default_rng(fuzz_seed("flatcore-scrambled"))
        for trial in range(cases):
            inject = rng.choice([None, "swap", "future"])
            history = build_history(rng, inject=inject)
            events = []
            for op in history.operations():
                events.append((0, op))
                if op.is_complete:
                    events.append((1, op))
            # Random order, except each op still invokes before completing.
            order = rng.permutation(len(events))
            scrambled, pending = [], {}
            for position in order:
                phase, op = events[position]
                if phase == 0:
                    scrambled.append((0, op))
                    if op.op_id in pending:
                        scrambled.append(pending.pop(op.op_id))
                elif any(e[1] is op for e in scrambled):
                    scrambled.append((1, op))
                else:
                    pending[op.op_id] = (1, op)
            checkers = (
                IncrementalAtomicityChecker(frontier_limit=3),
                ReferenceAtomicityChecker(frontier_limit=3),
            )
            for checker in checkers:
                for phase, op in scrambled:
                    if phase == 0:
                        checker.on_invoke(op)
                    else:
                        checker.on_complete(op)
            checkers[0]._audit()
            assert checker_export(checkers[1]) == checker_export(checkers[0]), (
                f"{inject} trial {trial}"
            )


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from([WRITE, READ]),
        st.integers(0, 60),  # invocation time (tenths)
        st.integers(1, 40),  # duration (tenths)
        st.integers(0, 2),  # client
    ),
    min_size=1,
    max_size=10,
)


class TestHypothesisProperties:
    @settings(max_examples=120 * FUZZ_FACTOR, deadline=None)
    @given(ops=ops_strategy, corrupt=st.booleans(), data=st.data())
    def test_verdicts_agree_on_arbitrary_interval_structures(
        self, ops, corrupt, data
    ):
        """Hypothesis-shaped intervals (adversarial nestings, ties, equal
        endpoints) rather than the generator's smooth exponentials."""
        history = History()
        per_client_time = {}
        rows = []
        for index, (kind, inv, duration, client) in enumerate(ops):
            start = max(inv / 10.0, per_client_time.get(client, 0.0))
            end = start + duration / 10.0
            per_client_time[client] = end + 0.05  # well-formed clients
            rows.append((f"op{index}", kind, f"c{client}", start, end))
        register = b""
        sequence = 0
        for op_id, kind, client, start, end in sorted(rows, key=lambda r: r[3]):
            if kind == WRITE:
                register = f"v{sequence}".encode()
                sequence += 1
                history.invoke(op_id, kind, client, start, value=register)
                history.respond(op_id, end)
            else:
                history.invoke(op_id, kind, client, start)
                history.respond(op_id, end, value=register)
        if corrupt and history.reads():
            reads = [r for r in history.reads() if r.is_complete]
            if reads:
                victim = data.draw(st.sampled_from(reads))
                victim.value = data.draw(
                    st.sampled_from([b"\xffphantom\xff", b"", b"v0"])
                )
        wgl, incremental, sharded = verdicts(history)
        if wgl is not None:
            assert incremental == wgl
        for verdict in sharded:
            assert verdict == incremental

    @settings(max_examples=60 * FUZZ_FACTOR, deadline=None)
    @given(shards=st.integers(1, 6), seed=st.integers(0, 2**20))
    def test_shard_count_never_changes_the_verdict(self, shards, seed):
        rng = np.random.default_rng(seed)
        history = build_history(
            rng, inject=rng.choice([None, "swap", "phantom"])
        )
        reference = bool(check_history_incrementally(history, initial_value=b""))
        assert (
            bool(check_history_sharded(history, shards=shards, initial_value=b""))
            == reference
        )
