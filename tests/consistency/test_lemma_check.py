"""Tests for the tag-based Lemma 2.1 atomicity check.

Besides the fixed cases, :func:`pairwise_violations` states Lemma 2.1
literally, as a check over every pair of completed operations, and a seeded
generator holds the streamed :class:`LemmaObserver` to it: the same
verdicts, the same operations breaking P1, and the same reads breaking P3
wherever P2 holds (under a P2 violation the observer compares a read with
the first completed write of its tag, the pairwise check with the last).
"""

import random

import pytest

from test_fuzz_checkers import FUZZ_FACTOR, fuzz_seed

from repro.consistency.history import READ, WRITE, History
from repro.consistency.lemma_check import LemmaObserver, check_lemma_properties
from repro.core.soda.cluster import SodaCluster
from repro.core.tags import TAG_ZERO, Tag
from repro.sim.network import FixedDelay, UniformDelay


def history(*ops):
    """ops: (op_id, kind, inv, res, value, tag)."""
    h = History()
    for op_id, kind, inv, res, value, tag in ops:
        h.invoke(op_id, kind, "c-" + op_id, inv, value=value if kind == WRITE else None)
        h.respond(op_id, res, value=value, tag=tag)
    return h


class TestCleanHistories:
    def test_empty(self):
        assert check_lemma_properties(History()) == []

    def test_simple_write_read(self):
        h = history(
            ("w1", WRITE, 0, 1, b"a", Tag(1, "w")),
            ("r1", READ, 2, 3, b"a", Tag(1, "w")),
        )
        assert check_lemma_properties(h, initial_tag=TAG_ZERO) == []

    def test_read_of_initial_value(self):
        h = history(("r1", READ, 0, 1, b"", TAG_ZERO))
        assert check_lemma_properties(h, initial_tag=TAG_ZERO, initial_value=b"") == []

    def test_concurrent_writes_distinct_tags(self):
        h = history(
            ("w1", WRITE, 0, 10, b"a", Tag(1, "w1")),
            ("w2", WRITE, 0, 10, b"b", Tag(1, "w2")),
            ("r1", READ, 11, 12, b"b", Tag(1, "w2")),
        )
        assert check_lemma_properties(h, initial_tag=TAG_ZERO) == []

    def test_incomplete_operations_ignored(self):
        h = History()
        h.invoke("w1", WRITE, "w", 0, value=b"a")
        assert check_lemma_properties(h, initial_tag=TAG_ZERO) == []


class TestViolations:
    def test_p1_tag_order_against_real_time(self):
        """A later operation carrying a smaller tag violates P1."""
        h = history(
            ("w1", WRITE, 0, 1, b"a", Tag(2, "w")),
            ("w2", WRITE, 2, 3, b"b", Tag(1, "w")),
        )
        violations = check_lemma_properties(h, initial_tag=TAG_ZERO)
        assert any(v.kind == "P1" for v in violations)

    def test_p1_read_before_its_write(self):
        """A read that returns a tag, followed in real time by the write that
        creates it, violates P1 (write < read in the partial order)."""
        h = history(
            ("r1", READ, 0, 1, b"a", Tag(1, "w")),
            ("w1", WRITE, 2, 3, b"a", Tag(1, "w")),
        )
        violations = check_lemma_properties(h, initial_tag=TAG_ZERO)
        assert any(v.kind == "P1" for v in violations)

    def test_p2_duplicate_write_tags(self):
        h = history(
            ("w1", WRITE, 0, 1, b"a", Tag(1, "w")),
            ("w2", WRITE, 2, 3, b"b", Tag(1, "w")),
        )
        violations = check_lemma_properties(h, initial_tag=TAG_ZERO)
        assert any(v.kind == "P2" for v in violations)

    def test_p3_read_value_mismatch(self):
        h = history(
            ("w1", WRITE, 0, 1, b"expected", Tag(1, "w")),
            ("r1", READ, 2, 3, b"different", Tag(1, "w")),
        )
        violations = check_lemma_properties(h, initial_tag=TAG_ZERO)
        assert any(v.kind == "P3" for v in violations)

    def test_p3_read_of_unknown_tag(self):
        h = history(("r1", READ, 0, 1, b"x", Tag(9, "ghost")))
        violations = check_lemma_properties(h, initial_tag=TAG_ZERO)
        assert any(v.kind == "P3" for v in violations)

    def test_p3_initial_tag_wrong_value(self):
        h = history(("r1", READ, 0, 1, b"not-initial", TAG_ZERO))
        violations = check_lemma_properties(h, initial_tag=TAG_ZERO, initial_value=b"")
        assert any(v.kind == "P3" for v in violations)

    def test_missing_tags_rejected(self):
        h = History()
        h.invoke("w1", WRITE, "w", 0, value=b"a")
        h.respond("w1", 1.0)  # no tag recorded
        with pytest.raises(ValueError):
            check_lemma_properties(h, initial_tag=TAG_ZERO)

    def test_violation_string_rendering(self):
        h = history(("r1", READ, 0, 1, b"x", Tag(9, "ghost")))
        violations = check_lemma_properties(h, initial_tag=TAG_ZERO)
        assert "P3" in str(violations[0])


# ----------------------------------------------------------------------
# the literal statement: Lemma 2.1 over every pair of completed operations
# ----------------------------------------------------------------------
def precedes(a, b):
    """Real-time precedence: ``a`` responded before ``b`` was invoked."""
    return a.responded_at is not None and a.responded_at < b.invoked_at


def test_precedence_and_concurrency():
    h = History()
    h.invoke("w1", WRITE, "w0", 0.0, value=b"a")
    h.respond("w1", 2.0)
    h.invoke("r1", READ, "r0", 1.0)
    h.respond("r1", 3.0, value=b"a")
    h.invoke("w2", WRITE, "w0", 5.0, value=b"b")
    w1, r1, w2 = h.get("w1"), h.get("r1"), h.get("w2")
    assert precedes(w1, w2)
    # Overlapping operations precede neither way.
    assert not precedes(w1, r1) and not precedes(r1, w1)
    # An incomplete operation never precedes anything.
    assert not precedes(w2, w1)


def _ordered(a, b):
    """The paper's partial order ``a < b`` derived from tags."""
    return a.tag < b.tag or (a.tag == b.tag and a.kind == WRITE and b.kind == READ)


def pairwise_violations(history, initial_tag=None, initial_value=b""):
    """``(kind, op_ids)`` of every violated property, pair by pair."""
    ops = history.complete_operations()
    found = []
    # P1: the partial order is consistent with real-time order.
    for a in ops:
        for b in ops:
            if a.op_id != b.op_id and precedes(a, b) and _ordered(b, a):
                found.append(("P1", (a.op_id, b.op_id)))
    # P2: a write is comparable with every other operation.
    writes = [op for op in ops if op.kind == WRITE]
    for w in writes:
        for other in ops:
            if other.op_id != w.op_id and not (_ordered(w, other) or _ordered(other, w)):
                found.append(("P2", (w.op_id, other.op_id)))
    # P3: a read returns the value of the write with its tag, or the
    # initial value with the initial tag.
    write_by_tag = {w.tag: w for w in writes}
    for r in ops:
        if r.kind != READ:
            continue
        if initial_tag is not None and r.tag == initial_tag:
            if r.value != initial_value:
                found.append(("P3", (r.op_id,)))
            continue
        writer = write_by_tag.get(r.tag)
        if writer is None or r.value != writer.value:
            found.append(("P3", (r.op_id,)))
    return found


def random_history(rng):
    """0-10 operations over few tags, values and instants, so that ties,
    shared tags and wrong values are all common; about one in eight
    operations stays incomplete."""
    h = History()
    tags = [TAG_ZERO] + [Tag(z, w) for z in (1, 2, 3) for w in "ab"]
    for i in range(rng.randrange(11)):
        kind = rng.choice([WRITE, READ])
        tag = rng.choice(tags)
        value = repr(tag).encode() if rng.random() < 0.8 else rng.choice([b"", b"x"])
        inv = rng.randrange(8)
        h.invoke(f"o{i}", kind, f"c{i}", inv, value=value if kind == WRITE else None)
        if rng.random() < 0.875:
            h.respond(f"o{i}", inv + rng.randrange(4), value=value, tag=tag)
    return h


def _offenders(found, kind):
    """The offending operation of each violation of ``kind``: P1 names the
    earlier operation first, P3 the read first."""
    return {op_ids[-1] if kind == "P1" else op_ids[0] for k, op_ids in found if k == kind}


def test_the_observer_agrees_with_the_pairwise_statement():
    rng = random.Random(fuzz_seed("lemma-check"))
    for case in range(3_000 * FUZZ_FACTOR):
        h = random_history(rng)
        initial_tag = rng.choice([None, TAG_ZERO])
        expected = pairwise_violations(h, initial_tag)
        found = [(v.kind, v.op_ids) for v in check_lemma_properties(h, initial_tag=initial_tag)]
        where = f"case {case}: {expected} vs {found}"
        assert bool(found) == bool(expected), where
        assert _offenders(found, "P1") == _offenders(expected, "P1"), where
        assert bool(_offenders(found, "P2")) == bool(_offenders(expected, "P2")), where
        if not _offenders(expected, "P2"):
            assert _offenders(found, "P3") == _offenders(expected, "P3"), where


def test_p3_compares_a_read_with_the_first_write_of_its_tag():
    """Two writes share a tag (P2); the read returns the second one's
    value, so against the first completed write it breaks P3 as well."""
    h = history(
        ("w1", WRITE, 0, 1, b"a", Tag(1, "w")),
        ("w2", WRITE, 2, 3, b"b", Tag(1, "w")),
        ("r1", READ, 4, 5, b"b", Tag(1, "w")),
    )
    violations = check_lemma_properties(h, initial_tag=TAG_ZERO)
    assert [(v.kind, v.op_ids) for v in violations] == [
        ("P2", ("w1", "w2")),
        ("P3", ("r1", "w1")),
    ]


def test_a_read_waits_for_its_write_to_complete():
    """A read that completes before the write with its tag is checked when
    the write completes, and one whose write never completes at finish."""
    h = history(
        ("w1", WRITE, 0, 5, b"a", Tag(1, "w")),
        ("r1", READ, 1, 2, b"x", Tag(1, "w")),
        ("r2", READ, 3, 4, b"y", Tag(2, "w")),
    )
    violations = check_lemma_properties(h, initial_tag=TAG_ZERO)
    assert [(v.kind, v.op_ids) for v in violations] == [
        ("P3", ("r1", "w1")),
        ("P3", ("r2",)),
    ]


def test_one_violation_per_offending_operation():
    """Three operations after a write with a greater tag each break P1
    once, naming the write that held the greatest key."""
    h = history(
        ("w1", WRITE, 0, 1, b"a", Tag(5, "w")),
        ("w2", WRITE, 2, 3, b"b", Tag(1, "w")),
        ("w3", WRITE, 4, 5, b"c", Tag(2, "w")),
        ("r1", READ, 6, 7, b"a", Tag(5, "w")),
    )
    violations = check_lemma_properties(h, initial_tag=TAG_ZERO)
    assert [(v.kind, v.op_ids) for v in violations] == [
        ("P1", ("w1", "w2")),
        ("P1", ("w1", "w3")),
    ]


def test_a_response_at_an_invocation_instant_does_not_precede_it():
    """``w1`` and ``w0`` respond at the instant ``w2`` is invoked: not
    real-time precedence, so ``w2``'s smaller tag breaks nothing, whichever
    order a live sink delivers the three events in."""
    for respond_first in (False, True):
        h = History()
        observer = h.subscribe(LemmaObserver(initial_tag=TAG_ZERO))
        h.invoke("w1", WRITE, "a", 0.0, value=b"a")
        h.invoke("w0", WRITE, "c", 0.5, value=b"c")
        steps = [
            lambda: h.respond("w1", 1.0, tag=Tag(3, "a")),
            lambda: h.respond("w0", 1.0, tag=Tag(1, "c")),
            lambda: h.invoke("w2", WRITE, "b", 1.0, value=b"b"),
        ]
        for step in steps if respond_first else steps[::-1]:
            step()
        h.respond("w2", 2.0, tag=Tag(2, "b"))
        assert observer.finish() == []
        assert check_lemma_properties(h, initial_tag=TAG_ZERO) == []


# ----------------------------------------------------------------------
# subscribed to a running cluster's sink
# ----------------------------------------------------------------------
def _live_and_replayed(cluster, schedule):
    """Subscribe an observer to ``cluster``'s sink, run ``schedule`` on the
    cluster, then replay the recorded history: both violation lists."""
    observer = cluster.history.subscribe(LemmaObserver(initial_tag=TAG_ZERO))
    schedule(cluster)
    cluster.run()
    return observer.finish(), check_lemma_properties(
        cluster.history, initial_tag=TAG_ZERO, initial_value=b""
    )


def _concurrent(cluster):
    rng = cluster.sim.spawn_rng()
    for w in range(2):
        for i in range(4):
            cluster.schedule_write(float(rng.uniform(0, 8)), f"v-{w}-{i}".encode(), writer=w)
    for r in range(2):
        for _ in range(4):
            cluster.schedule_read(float(rng.uniform(0, 8)), reader=r)


def _in_lockstep(cluster):
    """One writer's four writes and two readers' reads 1-2 delays apart
    under a fixed delay: responses land on invocation instants 18 times."""
    cluster.write(b"first-0")
    for i in range(1, 4):
        cluster.schedule_write(cluster.sim.now + 1.0 + 4 * i, b"value-%d" % i)
    for r in range(2):
        for i in range(8):
            cluster.schedule_read(cluster.sim.now + 2.0 * i + r, reader=r)


@pytest.mark.parametrize("seed", range(3))
def test_the_live_observer_gives_the_replays_verdict(seed):
    cluster = SodaCluster(
        n=5, f=2, num_writers=2, num_readers=2, seed=seed,
        delay_model=UniformDelay(0.1, 3.0),
    )
    assert _live_and_replayed(cluster, _concurrent) == ([], [])


@pytest.mark.parametrize("mutant", [False, True], ids=["SodaWriter", "TagReusingSodaWriter"])
def test_the_live_observer_gives_the_replays_violations(mutant, monkeypatch):
    """Under ``TagReusingSodaWriter`` (writes under tags already stored) the
    live observer and the replay report the same violations, in the same
    order, though many responses share an instant with an invocation."""
    if mutant:
        from mutants.clients import TagReusingSodaWriter

        monkeypatch.setattr("repro.core.soda.cluster.SodaWriter", TagReusingSodaWriter)
    cluster = SodaCluster(
        n=5, f=2, num_writers=1, num_readers=2, seed=0, delay_model=FixedDelay(1.0)
    )
    live, replayed = _live_and_replayed(cluster, _in_lockstep)
    assert live == replayed
    assert {v.kind for v in live} == ({"P1", "P2"} if mutant else set())
