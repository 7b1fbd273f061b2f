"""Scalar GF(2^8) reference the vector kernels are compared against."""

from typing import Sequence


def dot(field, xs: Sequence[int], ys: Sequence[int]) -> int:
    """Inner product of two equal-length scalar sequences over ``field``."""
    assert len(xs) == len(ys), "dot product requires equal-length sequences"
    acc = 0
    for x, y in zip(xs, ys):
        acc ^= field.mul(x, y)
    return acc
