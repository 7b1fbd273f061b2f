"""The compiled checker core against the Python checker, event by event.

``repro.consistency.checker_core`` runs ``on_invoke`` / ``on_complete`` of
an :class:`IncrementalAtomicityChecker` on typed columns and a key table
that stand in for the checker's lists and its digest dict, and on its other
dicts.  Here one checker runs compiled and one in Python over the same
hypothesis-drawn event stream, and after every event every list, column,
dict and counter of the two (and their violations and recent-writes memo)
must be equal -- in order and in type, a column read as the list it
replaces and a key table as the dict.  Both store times as floats, so the
streams use ``int`` times, op ids drawn as text, in-order and scrambled
direct feeds, both ``unknown_values`` modes, repeated write values, failed
operations, values of at least 1 KiB, responses carrying a copy of the
written bytes, and frontiers of one or two clusters, so that evictions and
reopens happen.
"""

import gc
import random
import weakref
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.consistency import checker_core, incremental
from repro.consistency.incremental import (
    IncrementalAtomicityChecker,
    check_history_incrementally,
)
from repro.consistency.stream import READ, WRITE, OperationRecord, StreamingRecorder

pytestmark = pytest.mark.skipif(
    checker_core.CORE.availability_error() is not None,
    reason=f"compiled checker core unavailable: {checker_core.CORE.availability_error()}",
)

#: Executor bindings, left out of the comparison.
_BINDINGS = ("on_invoke", "on_complete")

VALUES = [b"", b"a", b"b", b"c", b"A" * 1024, b"B" * 1500, b"A" * 1023 + b"Z"]


def _unavailable():
    raise RuntimeError("no C toolchain")


def _compiled(**options):
    checker = IncrementalAtomicityChecker(**options)
    assert checker._bind_core()
    return checker


def _python(**options):
    checker = IncrementalAtomicityChecker(**options)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checker_core.CORE, "load", _unavailable)
        assert not checker._bind_core()
    return checker


def state(checker):
    """Every list, column, dict and counter of ``checker``, printed with
    types and dict order (a column as the list it stands for, a key table as
    the dict)."""
    core = checker_core.CORE.load()
    rows = {
        name: list(value)
        if type(value) is core.Column
        else dict(value.items())
        if type(value) is core.KeyTable
        else value
        for name, value in vars(checker).items()
        if name not in _BINDINGS
    }
    memo = rows.pop("_recent_writes")
    rows["_recent_writes"] = (list(memo._entries.items()), memo._bytes)
    return repr(sorted(rows.items()))


operations = st.lists(
    st.tuples(
        st.sampled_from([WRITE, READ]),
        st.integers(0, 30),  # invocation time
        st.integers(0, 12),  # duration
        st.integers(0, len(VALUES) - 1),  # value
        st.sampled_from(["complete", "copy", "fail", "open"]),
    ),
    min_size=1,
    max_size=24,
)


def _events(ops, scrambled, data, ids=None):
    """The feed: (phase, record) in live-stream order or scrambled, an
    invoke always before its own completion; ``ids`` names the ops."""
    events = []
    for index, (kind, start, duration, value, fate) in enumerate(ops):
        written = VALUES[value]
        invoked = OperationRecord(
            ids[index] if ids else f"op{index}", kind, f"c{index % 3}", start, None,
            written if kind == WRITE else None,
        )
        events.append((start, 0, invoked))
        if fate == "fail":
            events.append((start + duration, 2, invoked))
        elif fate != "open":
            answer = bytes(bytearray(written)) if fate == "copy" else written
            done = OperationRecord(
                invoked.op_id, kind, invoked.client, start, start + duration,
                written if kind == WRITE and fate == "complete" else answer,
            )
            events.append((start + duration, 1, done))
    events.sort(key=lambda event: (event[0], event[1]))
    if scrambled:
        shuffled = data.draw(st.permutations(events))
        invoked, pending, events = set(), {}, []
        for event in shuffled:
            op_id = event[2].op_id
            if event[1] == 0:
                events.append(event)
                invoked.add(op_id)
                events.extend(pending.pop(op_id, []))
            elif op_id in invoked:
                events.append(event)
            else:
                pending.setdefault(op_id, []).append(event)
    return [(phase, record) for _, phase, record in events]


@settings(max_examples=150, deadline=None)
@given(
    ops=operations,
    scrambled=st.booleans(),
    frontier_limit=st.sampled_from([1, 2, 256]),
    unknown_values=st.sampled_from(["flag", "defer"]),
    initial=st.sampled_from([b"", VALUES[4]]),
    overlay=st.sampled_from([(32, 16), (0, 16), (1, 2)]),
    data=st.data(),
)
def test_every_event_leaves_both_executors_in_the_same_state(
    ops, scrambled, frontier_limit, unknown_values, initial, overlay, data
):
    """``overlay`` is (``_EAGER_TAIL``, ``_DIRTY_LIMIT``): the defaults,
    every a-growth parked in the dirty overlay, or one slot eager and the
    overlay compacted at its third entry."""
    options = dict(
        frontier_limit=frontier_limit, unknown_values=unknown_values, initial_value=initial
    )
    _compare_per_event(_events(ops, scrambled, data), overlay, **options)


def _compare_per_event(events, overlay, **options):
    """A compiled and a Python checker over ``events``: their states must
    agree before the first and after every event, and their summaries at
    the end."""
    compiled, python = _compiled(**options), _python(**options)
    assert state(compiled) == state(python)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incremental, "_EAGER_TAIL", overlay[0])
        patch.setattr(incremental, "_DIRTY_LIMIT", overlay[1])
        for phase, record in events:
            for checker in (compiled, python):
                if phase == 0:
                    checker.on_invoke(record)
                elif phase == 1:
                    checker.on_complete(record)
                else:
                    checker.on_failed(record)
            assert state(compiled) == state(python), (
                f"the executors diverged at {(phase, record)}"
            )
        compiled._audit()
    assert compiled.cluster_summaries() == python.cluster_summaries(), (
        "the executors diverged in their summaries"
    )


#: Op ids as ``st.text()`` draws them, and lone surrogates, which a name
#: column keeps as UTF-8 with the surrogates passed through.
op_ids = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])))


@settings(max_examples=100, deadline=None)
@given(
    ops=operations,
    scrambled=st.booleans(),
    frontier_limit=st.sampled_from([1, 2, 256]),
    unknown_values=st.sampled_from(["flag", "defer"]),
    data=st.data(),
)
def test_text_op_ids_leave_both_executors_in_the_same_state(
    ops, scrambled, frontier_limit, unknown_values, data
):
    """Empty, non-ASCII and lone-surrogate op ids: the name columns hold
    them, the core orders tied first reads by their UTF-8 bytes and compares
    a completing write's id with its cluster's in place, and every violation
    names them as Python does."""
    ids = data.draw(st.lists(op_ids, min_size=len(ops), max_size=len(ops), unique=True))
    options = dict(frontier_limit=frontier_limit, unknown_values=unknown_values)
    _compare_per_event(_events(ops, scrambled, data, ids), (32, 16), **options)


@pytest.mark.parametrize("kind", [WRITE, READ])
def test_an_op_id_that_is_no_str_is_refused_by_name_in_both_executors(kind):
    """A name column holds text, so an op id of another type is refused
    (the way ``_as_time`` refuses a time) before its event moves anything."""
    compiled, python = _compiled(), _python()
    record = OperationRecord(7, kind, "c", 0.0, 1.0, b"x")
    refusals = []
    for checker in (compiled, python):
        for event in (checker.on_invoke, checker.on_complete):
            with pytest.raises(TypeError) as refused:
                event(record)
            refusals.append(str(refused.value))
    assert refusals == ["7: an op id is a str, not int"] * 4
    assert state(compiled) == state(python)
    assert compiled.ops_seen == 0 and compiled.reads_checked == 0


def check_fixed_streams_per_event():
    """The per-event differential on fixed in-order streams, under each
    overlay shape: the kill check of the core's C-source mutants."""
    draw = random.Random(0)
    for seed in range(8):
        ops = [
            (
                draw.choice([WRITE, READ]),
                draw.randrange(31),
                draw.randrange(13),
                draw.randrange(len(VALUES)),
                draw.choice(["complete", "copy", "fail", "open"]),
            )
            for _ in range(24)
        ]
        for overlay in [(32, 16), (0, 16), (1, 2)]:
            _compare_per_event(
                _events(ops, False, None), overlay, frontier_limit=(1, 2, 256)[seed % 3]
            )


def test_fixed_streams_leave_both_executors_in_the_same_state():
    check_fixed_streams_per_event()


@pytest.mark.parametrize("make", [_compiled, _python], ids=["native", "python"])
def test_a_crossing_only_the_overlay_holds_is_flagged(make, monkeypatch):
    """Every a-growth parks in the overlay.  ``r1`` grows the cluster of
    ``w1`` to 3 (its snapshot stays 0) and crosses nothing; ``r2`` grows
    that of ``w2`` to 5, and the crossing (``w1`` responded at 1 < 5,
    ``w1``'s a = 3 > 2, ``w2``'s response) is in the overlay alone."""
    monkeypatch.setattr(incremental, "_EAGER_TAIL", 0)
    checker = make()
    ops = [
        ("w1", WRITE, 0.0, 1.0, b"1"),
        ("w2", WRITE, 0.5, 2.0, b"2"),
        ("r1", READ, 3.0, 4.0, b"1"),
        ("r2", READ, 5.0, 6.0, b"2"),
    ]
    for op_id, kind, start, end, value in ops:
        checker.on_invoke(OperationRecord(op_id, kind, "c", start, None, value))
        checker.on_complete(OperationRecord(op_id, kind, "c", start, end, value))
        assert checker.ok == (op_id != "r2")
    assert list(checker._dirty) == [1, 2] and checker._dirty_a == 5.0
    assert [v.op_ids for v in checker.violations] == [("w2", "w1")]


def test_the_overlay_and_compaction_paths_match(monkeypatch):
    """Every a-growth beyond the last slot parks in the dirty overlay, and
    the third compacts it, on a stream long enough to do both often."""
    from repro.workloads.generator import StreamSpec, stream_operations

    monkeypatch.setattr(incremental, "_EAGER_TAIL", 1)
    monkeypatch.setattr(incremental, "_DIRTY_LIMIT", 2)
    states = []
    for make in (_compiled, _python):
        recorder = StreamingRecorder(window=64)
        checker = recorder.subscribe(make())
        stream_operations(
            StreamSpec(operations=2_000, clients=8, inject="stale", seed=3), recorder
        )
        checker._audit()
        assert not checker.ok
        states.append(state(checker))
    assert states[0] == states[1]


column_ops = st.lists(
    st.tuples(
        st.sampled_from(["append", "insert", "set", "del", "del-slice", "read-slice"]),
        st.integers(-6, 6),
        st.integers(-6, 6),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from("dq?"), ops=column_ops)
def test_a_column_acts_as_the_list_it_replaces(kind, ops):
    """Everything the checker's Python methods do to a column, on a column
    and a list side by side: same items, same errors."""
    make = {"d": float, "q": int, "?": lambda x: x % 2 == 1}[kind]
    column, mirror = checker_core.CORE.load().Column(kind, [make(1)]), [make(1)]
    for op, i, j in ops:
        results = []
        for target in (column, mirror):
            try:
                if op == "append":
                    target.append(make(i))
                elif op == "insert":
                    target.insert(i, make(j))
                elif op == "set":
                    target[i] = make(j)
                elif op == "del":
                    del target[i]
                elif op == "del-slice":
                    del target[i:]
                results.append(
                    (list(target[i:j]), target[i], target[-1]) if target else ()
                )
            except IndexError as exc:
                results.append(type(exc))
        assert results[0] == results[1] and len(column) == len(mirror), (op, i, j)
        assert list(column) == mirror and [type(x) for x in column] == [
            type(x) for x in mirror
        ]
    assert bisect_left(column, make(0)) == bisect_left(mirror, make(0))
    with pytest.raises(TypeError, match="column holds no"):
        column.append("x")


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["append", "set"]),
            st.integers(-6, 6),
            st.none() | op_ids | st.text(min_size=200, max_size=400),
        ),
        max_size=40,
    )
)
def test_a_name_column_acts_as_the_list_it_replaces(ops):
    """What the checker's Python methods do to a name column (append, set,
    index, iterate), on a name column and a list side by side; enough long
    names are replaced that the arena is compacted."""
    mirror = [None, "<initial>"]
    column = checker_core.CORE.load().Column("s", mirror)
    for _ in range(30):  # 12 KiB of replaced names: one compaction at least
        for target in (column, mirror):
            target[1] = "x" * 400
    for op, i, name in ops:
        results = []
        for target in (column, mirror):
            try:
                if op == "append":
                    target.append(name)
                else:
                    target[i] = name
                results.append((target[i], target[-1]))
            except IndexError as exc:
                results.append(type(exc))
        assert results[0] == results[1] and list(column) == mirror, (op, i, name)
    with pytest.raises(TypeError, match="a name column holds str or None, not int"):
        column.append(7)


#: First halves of keys: the third differs from the first only in the top
#: bit of its 8th byte, which no slot mask reaches, so the two share a slot
#: in every index.
PREFIXES = [bytes(8), b"\x01" * 8, bytes(7) + b"\x80"]
key_steps = st.lists(
    st.tuples(
        st.sampled_from(["add", "get", "item", "in"]),
        st.sampled_from(PREFIXES),
        st.sampled_from([bytes(8), b"\xff" * 8]) | st.binary(min_size=8, max_size=8),
    ),
    max_size=120,
)


def _key_step(table, op, key):
    """One step on a key table or on the dict it stands for, and its outcome."""
    if op == "add":
        if key in table:  # a key table takes each key once, at cid len(table)
            return "held"
        table[key] = len(table)
        return len(table)
    if op == "item":
        try:
            return table[key]
        except KeyError:
            return "missing"
    return table.get(key) if op == "get" else key in table


@settings(max_examples=100, deadline=None)
@example(steps=[("add", bytes(8), bytes(8)), ("get", bytes(8), b"\xff" * 8)])
@example(steps=[("add", bytes(8), bytes(8)), ("add", bytes(8), b"\xff" * 8)])
@given(steps=key_steps)
def check_a_key_table_acts_as_a_dict(steps):
    """Crafted 16-byte keys, many sharing their first 8 bytes or a slot, on
    a key table and a dict side by side: the same outcomes, and the same
    ``len``, ``items()`` and ``values()`` in cid order, through every
    growth of the index.  The kill check of the key table's C mutants."""
    table, mirror = checker_core.CORE.load().KeyTable({}), {}
    for op, head, tail in steps:
        try:
            outcome = _key_step(table, op, head + tail)
        except TypeError as refused:
            outcome = refused
        assert (outcome, len(table), table.items(), list(table.values())) == (
            _key_step(mirror, op, head + tail),
            len(mirror),
            list(mirror.items()),
            list(mirror.values()),
        ), f"the key table and the dict disagree at {op} {(head + tail).hex()}"


def test_a_key_table_acts_as_the_dict_it_replaces():
    check_a_key_table_acts_as_a_dict()
    table = checker_core.CORE.load().KeyTable({bytes(16): 0, b"k" * 16: 1})
    assert table.items() == [(bytes(16), 0), (b"k" * 16, 1)]
    assert table.get(b"short") is None and b"short" not in table and 3 not in table
    for key, cid, error in [
        (b"short", 2, "holds 16-byte keys, not b'short'"),
        (bytes(16), 2, "takes a new key at cid len"),
        (b"n" * 16, 3, "takes a new key at cid len"),
    ]:
        with pytest.raises(TypeError, match=error):
            table[key] = cid
    with pytest.raises(TypeError, match="takes a new key at cid len"):
        checker_core.CORE.load().KeyTable({bytes(16): 1})
    assert len(table) == 2


class TestBinding:
    def test_the_first_event_binds_not_the_construction(self):
        checker = IncrementalAtomicityChecker()
        assert checker._core_pending and "on_invoke" not in vars(checker)
        checker.observe_invoke(OperationRecord("w1", WRITE, "c", 0.0, None, b"x"))
        for name in _BINDINGS:
            assert type(vars(checker)[name]).__name__ == "builtin_function_or_method"
        assert checker.observe_invoke == vars(checker)["on_invoke"]
        assert checker.observe_complete == vars(checker)["on_complete"]
        assert checker.ops_seen == 1 and not checker._core_pending

    def test_replay_reaches_the_core(self, monkeypatch):
        bound = []
        bind = IncrementalAtomicityChecker._bind_core
        monkeypatch.setattr(
            IncrementalAtomicityChecker,
            "_bind_core",
            lambda self: bound.append(bind(self)) or bound[-1],
        )
        from repro.consistency.history import History

        history = History()
        history.invoke("w1", WRITE, "c", 0, b"x")
        history.respond("w1", 1)
        assert check_history_incrementally(history).ok
        assert bound == [True]

    def test_a_subclass_keeps_the_python_methods(self):
        class Subclass(IncrementalAtomicityChecker):
            pass

        checker = Subclass()
        checker.on_invoke(OperationRecord("w1", WRITE, "c", 0.0, None, b"x"))
        assert not any(name in vars(checker) for name in _BINDINGS)
        assert checker.ops_seen == 1

    def test_an_unavailable_core_keeps_the_python_methods(self, monkeypatch):
        monkeypatch.setattr(checker_core.CORE, "load", _unavailable)
        checker = IncrementalAtomicityChecker()
        checker.on_complete(OperationRecord("w1", WRITE, "c", 0.0, 1.0, b"x"))
        assert not any(name in vars(checker) for name in _BINDINGS)
        assert checker.ops_seen == 1 and checker.ok
        assert checker_core.CORE.describe().startswith("python (native unavailable: ")

    def test_a_record_of_another_type_is_read_by_attribute(self):
        """Fields are read off their slots only in an ``OperationRecord``."""
        from types import SimpleNamespace

        compiled, python = _compiled(), _python()
        for at, kind, value in ((0, WRITE, b"x"), (2, READ, b"x"), (4, READ, b"y")):
            record = SimpleNamespace(
                op_id=f"op{at}", kind=kind, invoked_at=at, responded_at=at + 1, value=value
            )
            for checker in (compiled, python):
                checker.on_invoke(record)
                checker.on_complete(record)
            assert state(compiled) == state(python)
        assert [v.kind for v in compiled.violations] == ["unwritten-value"]

    def test_a_bound_checker_is_collected(self):
        """The core and the checker refer to each other; the cycle goes."""
        checker = _compiled()
        checker.on_invoke(OperationRecord("w1", WRITE, "c", 0.0, None, b"x"))
        gone = weakref.ref(checker)
        del checker
        gc.collect()
        assert gone() is None

    def test_an_error_in_a_python_step_propagates(self, monkeypatch):
        """A raising ``_value_key`` raises out of the compiled call, and the
        counters moved as far as Python's would have."""
        checker = _compiled()

        def broken(value):
            raise ValueError("digest failed")

        monkeypatch.setattr(incremental, "_value_key", broken)
        with pytest.raises(ValueError, match="digest failed"):
            checker.on_invoke(OperationRecord("w1", WRITE, "c", 0.0, None, b"x"))
        assert checker.ops_seen == 1 and not checker._open_write_keys
