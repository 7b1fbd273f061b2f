"""Matrix algebra over GF(2^8).

The inversion behind the erasure-only "solve a k x k system" decoding path
of :class:`~repro.erasure.linear.LinearCode`.  Matrices are numpy ``uint8``
arrays; all arithmetic is delegated to :class:`repro.erasure.gf.GF256`.
"""

from __future__ import annotations

import numpy as np

from repro.erasure.gf import GF256


class SingularMatrixError(ValueError):
    """Raised when a matrix that must be invertible is singular."""


def identity(n: int) -> np.ndarray:
    """The n x n identity matrix over GF(2^8)."""
    return np.eye(n, dtype=np.uint8)


def gauss_jordan_invert(field: GF256, A: np.ndarray) -> np.ndarray:
    """Invert a square matrix by Gauss–Jordan elimination.

    Raises
    ------
    SingularMatrixError
        If the matrix is not invertible.
    """
    A = np.array(A, dtype=np.uint8, copy=True)
    n, m = A.shape
    if n != m:
        raise ValueError("only square matrices can be inverted")
    aug = np.concatenate([A, identity(n)], axis=1)
    for col in range(n):
        # Find a pivot.
        pivot_row = None
        for r in range(col, n):
            if aug[r, col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        # Normalise the pivot row.
        pivot_inv = field.inv(int(aug[col, col]))
        aug[col] = field.scale_vec(aug[col], pivot_inv)
        # Eliminate the column everywhere else.
        for r in range(n):
            if r == col or aug[r, col] == 0:
                continue
            factor = int(aug[r, col])
            aug[r] ^= field.scale_vec(aug[col], factor)
    return aug[:, n:]
