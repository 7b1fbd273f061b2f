"""Version tags.

A tag is a pair ``(z, writer_id)`` where ``z`` is an integer sequence
number and ``writer_id`` identifies the writer that created the version
(Section IV).  Tags are totally ordered: first by ``z``, then by writer id;
because writer ids are unique, two distinct write operations always obtain
distinct, comparable tags.

Tags are metadata — they contribute nothing to storage or communication
cost (Section II-h).
"""

from __future__ import annotations

from functools import total_ordering


@total_ordering
class Tag:
    """A version identifier ``(z, writer_id)``.

    Immutable and hashed once: tags key the per-read relay state of every
    server, so ``hash(tag)`` runs tens of times per operation and returns
    the value computed at construction (the hash of the ``(z, writer_id)``
    pair, so set and dict orders are those of the pair).
    """

    __slots__ = ("z", "writer_id", "_hash")

    z: int
    writer_id: str

    def __init__(self, z: int, writer_id: str) -> None:
        if z < 0:
            raise ValueError("tag sequence number must be non-negative")
        set_field = object.__setattr__
        set_field(self, "z", z)
        set_field(self, "writer_id", writer_id)
        set_field(self, "_hash", hash((z, writer_id)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: Tag is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: Tag is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.z == other.z and self.writer_id == other.writer_id

    def __reduce__(self):
        # Rebuilt through __init__: the string hash seed differs per process,
        # so a pool worker must not inherit the parent's _hash.
        return (Tag, (self.z, self.writer_id))

    def next_for(self, writer_id: str) -> "Tag":
        """The tag a writer creates after observing this one as the maximum
        (``(z + 1, w)`` in the write-put phase of Fig. 3)."""
        return Tag(self.z + 1, writer_id)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        return (self.z, self.writer_id) < (other.z, other.writer_id)

    # The remaining comparisons are spelled out rather than left to
    # ``total_ordering``'s derived wrappers: tag comparison sits on the
    # per-message hot path of every protocol, and the derived versions cost
    # an extra call plus a NotImplemented check each.
    def __gt__(self, other: object) -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        return (self.z, self.writer_id) > (other.z, other.writer_id)

    def __le__(self, other: object) -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        return (self.z, self.writer_id) <= (other.z, other.writer_id)

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        return (self.z, self.writer_id) >= (other.z, other.writer_id)

    def __repr__(self) -> str:
        return f"Tag(z={self.z}, w={self.writer_id!r})"


#: The distinguished initial tag ``t0`` associated with the initial value ``v0``.
TAG_ZERO = Tag(0, "")


def max_tag(tags) -> Tag:
    """The maximum of a non-empty collection of tags."""
    tags = list(tags)
    if not tags:
        raise ValueError("max_tag requires at least one tag")
    result = tags[0]
    for t in tags[1:]:
        if t > result:
            result = t
    return result
