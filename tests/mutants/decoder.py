"""A mutant of the memoizing decoder; its docstring names the check that
kills it, and its row of :data:`mutants.MUTANTS` installs it over
``repro.runtime.cluster.CachedDecoder`` (the name a cluster builds its
shared decoder from)."""

from repro.erasure.batch import CachedDecoder


class TaglessCachedDecoder(CachedDecoder):
    """Keys its cache on the element indices alone, dropping the tag and the
    element bytes.

    A read that decodes a newer version from the same index set as an
    earlier read is served the earlier read's value.  One read per version,
    or every read from a fresh index set, hides it; a reader that reads,
    sees a write complete, and reads again from the same servers does not:
    the second read returns an overwritten value, which the atomicity
    checker flags.
    """

    @staticmethod
    def _key(tag, elements):
        return tuple(sorted(el.index for el in elements))

    @staticmethod
    def _entry_bytes(key, value):
        return len(value)
