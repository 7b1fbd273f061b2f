"""Tests for version tags."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.tags import TAG_ZERO, Tag, max_tag

tags = st.builds(
    Tag,
    z=st.integers(min_value=0, max_value=1000),
    writer_id=st.text(alphabet="abcw0123456789", min_size=0, max_size=5),
)


class TestTagOrdering:
    def test_zero_tag(self):
        assert TAG_ZERO.z == 0
        assert TAG_ZERO.writer_id == ""

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError):
            Tag(-1, "w")

    def test_order_by_z_first(self):
        assert Tag(1, "z") < Tag(2, "a")
        assert Tag(2, "a") > Tag(1, "z")

    def test_order_by_writer_on_tie(self):
        assert Tag(3, "w1") < Tag(3, "w2")
        assert not Tag(3, "w2") < Tag(3, "w1")

    def test_equality_and_hash(self):
        assert Tag(1, "w") == Tag(1, "w")
        assert hash(Tag(1, "w")) == hash(Tag(1, "w"))
        assert Tag(1, "w") != Tag(1, "x")

    def test_hash_is_that_of_the_pair(self):
        """Set and dict orders (and with them the goldens) are those the
        generated dataclass hash gave."""
        assert hash(Tag(7, "w3")) == hash((7, "w3"))
        assert Tag(1, "w") != (1, "w")

    def test_immutable_and_slotted(self):
        tag = Tag(2, "w")
        for name in ("z", "writer_id", "_hash", "extra"):
            with pytest.raises(AttributeError):
                setattr(tag, name, 9)
        with pytest.raises(AttributeError):
            del tag.z
        assert not hasattr(tag, "__dict__")
        assert (tag.z, tag.writer_id, hash(tag)) == (2, "w", hash((2, "w")))

    def test_pickle_and_copy_round_trip(self):
        tag = Tag(41, "w7")
        for clone in (
            pickle.loads(pickle.dumps(tag)),
            pickle.loads(pickle.dumps(tag, protocol=0)),
            copy.copy(tag),
            copy.deepcopy(tag),
        ):
            assert clone == tag and hash(clone) == hash(tag)
            assert {tag: "found"}[clone] == "found"

    def test_unpickling_rehashes_in_the_receiving_process(self):
        """String hashes are seeded per process, so the pickle carries the
        fields and never the parent's hash."""
        assert Tag(3, "w").__reduce__() == (Tag, (3, "w"))

    def test_next_for(self):
        t = Tag(5, "w1").next_for("w2")
        assert t == Tag(6, "w2")
        assert TAG_ZERO.next_for("w9") == Tag(1, "w9")

    def test_comparison_with_non_tag(self):
        assert Tag(1, "w").__lt__(42) is NotImplemented

    @given(a=tags, b=tags)
    def test_total_order(self, a, b):
        assert (a < b) + (b < a) + (a == b) == 1

    @given(a=tags, b=tags, c=tags)
    def test_transitivity(self, a, b, c):
        if a < b and b < c:
            assert a < c

    @given(t=tags, w=st.text(alphabet="w123", min_size=1, max_size=3))
    def test_next_is_strictly_greater(self, t, w):
        assert t.next_for(w) > t


class TestMaxTag:
    def test_max_of_list(self):
        tags_ = [Tag(1, "a"), Tag(3, "b"), Tag(3, "a"), Tag(2, "z")]
        assert max_tag(tags_) == Tag(3, "b")

    def test_single(self):
        assert max_tag([TAG_ZERO]) == TAG_ZERO

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_tag([])
