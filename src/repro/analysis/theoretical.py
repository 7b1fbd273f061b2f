"""The paper's closed-form cost expressions.

Every experiment report prints the measured quantity next to the value
predicted by these functions, so the comparison with the paper is explicit
and mechanical.  All costs are normalized to the value size (Section II-h).
"""

from __future__ import annotations

from dataclasses import dataclass


# ----------------------------------------------------------------------
# SODA (Theorems 5.3, 5.4, 5.6, 5.7)
# ----------------------------------------------------------------------
def soda_storage_cost(n: int, f: int) -> float:
    """Theorem 5.3: total storage cost ``n / (n - f)``."""
    _check(n, f)
    return n / (n - f)


def soda_write_cost_bound(n: int, f: int) -> float:
    """Theorem 5.4: write communication cost is at most ``5 f^2``.

    For ``f = 0`` the dispersal set is a single server: the writer sends it
    the full value, and it sends each of the other ``n - 1`` servers a coded
    element of ``1/k = 1/n``, so the cost is ``1 + (n - 1) / n``.
    """
    _check(n, f)
    return 1.0 + (n - 1) / n if f == 0 else 5.0 * f * f


def soda_read_cost(n: int, f: int, delta_w: int) -> float:
    """Theorem 5.6: read cost at most ``(n / (n - f)) * (delta_w + 1)``."""
    _check(n, f)
    if delta_w < 0:
        raise ValueError("delta_w must be non-negative")
    return n / (n - f) * (delta_w + 1)


def soda_write_latency_bound(delta: float) -> float:
    """Theorem 5.7: a successful write completes within ``5 * delta``."""
    return 5.0 * delta


def soda_read_latency_bound(delta: float) -> float:
    """Theorem 5.7: a successful read completes within ``6 * delta``."""
    return 6.0 * delta


# ----------------------------------------------------------------------
# SODAerr (Theorem 6.3)
# ----------------------------------------------------------------------
def sodaerr_storage_cost(n: int, f: int, e: int) -> float:
    """Theorem 6.3(i): total storage cost ``n / (n - f - 2e)``."""
    _check_err(n, f, e)
    return n / (n - f - 2 * e)


def sodaerr_write_cost_bound(n: int, f: int, e: int) -> float:
    """Theorem 6.3(ii): write cost at most ``5 f^2`` (same as SODA)."""
    _check_err(n, f, e)
    return soda_write_cost_bound(n, f)


def sodaerr_read_cost(n: int, f: int, e: int, delta_w: int) -> float:
    """Theorem 6.3(iii): read cost ``(n / (n - f - 2e)) * (delta_w + 1)``."""
    _check_err(n, f, e)
    if delta_w < 0:
        raise ValueError("delta_w must be non-negative")
    return n / (n - f - 2 * e) * (delta_w + 1)


# ----------------------------------------------------------------------
# Baselines (Table I and Section I-B)
# ----------------------------------------------------------------------
def abd_storage_cost(n: int) -> float:
    """ABD replicates the full value at every server."""
    return float(n)


def abd_write_cost(n: int) -> float:
    return float(n)


def abd_read_cost(n: int) -> float:
    """The query phase brings back up to ``n`` values and the write-back
    phase sends the value to all ``n`` servers: ``2n``."""
    return 2.0 * n


def cas_communication_cost(n: int, f: int) -> float:
    """CAS/CASGC write or read cost ``n / (n - 2f)``."""
    if n - 2 * f < 1:
        raise ValueError("CAS requires n - 2f >= 1")
    return n / (n - 2 * f)


def casgc_storage_cost(n: int, f: int, delta: int) -> float:
    """CASGC worst-case total storage ``(n / (n - 2f)) * (delta + 1)``."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return cas_communication_cost(n, f) * (delta + 1)


# ----------------------------------------------------------------------
# Table I (f = f_max = n/2 - 1, n even)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TableOneRow:
    """One row of Table I, as closed-form values for a concrete ``n``."""

    algorithm: str
    write_cost: float
    read_cost: float
    storage_cost: float


def f_max(n: int) -> int:
    """The largest crash tolerance any of the compared algorithms supports:
    ``floor((n - 1) / 2)``; equals ``n/2 - 1`` for even ``n``."""
    return (n - 1) // 2


def table1_rows(n: int, delta: int, delta_w: int) -> list[TableOneRow]:
    """The paper's Table I evaluated at ``f = f_max`` for a concrete ``n``.

    ``delta`` is CASGC's concurrency bound, ``delta_w`` the concurrency a
    SODA read actually experiences.
    """
    if n % 2 != 0:
        raise ValueError("Table I assumes n is even")
    f = n // 2 - 1
    return [
        TableOneRow("ABD", abd_write_cost(n), abd_read_cost(n), abd_storage_cost(n)),
        TableOneRow(
            "CASGC",
            cas_communication_cost(n, f),
            cas_communication_cost(n, f),
            casgc_storage_cost(n, f, delta),
        ),
        TableOneRow(
            "SODA",
            soda_write_cost_bound(n, f),
            soda_read_cost(n, f, delta_w),
            soda_storage_cost(n, f),
        ),
    ]


# ----------------------------------------------------------------------
# validation helpers
# ----------------------------------------------------------------------
def _check(n: int, f: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if f < 0:
        raise ValueError("f must be non-negative")
    if n - f < 1:
        raise ValueError("k = n - f must be at least 1")


def _check_err(n: int, f: int, e: int) -> None:
    _check(n, f)
    if e < 0:
        raise ValueError("e must be non-negative")
    if n - f - 2 * e < 1:
        raise ValueError("k = n - f - 2e must be at least 1")
