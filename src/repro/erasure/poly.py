"""Polynomial arithmetic over GF(2^8).

Polynomials are represented as Python lists of integer coefficients in
*descending* order of degree (``[a_n, ..., a_1, a_0]``), matching the
conventional presentation of Reed–Solomon generator polynomials.  The empty
polynomial and ``[0]`` both denote the zero polynomial.

This is what the construction of the Reed–Solomon encoder needs, and no
more: the generator polynomial (:func:`from_roots`) and the polynomial long
division that derives each systematic encode-matrix column (:func:`mod`).
The errors-and-erasures decoder (Berlekamp–Massey, Chien search, Forney)
does not use them — :class:`~repro.erasure.rs.ReedSolomonCode` carries its
own *ascending*-order helpers.  They favour clarity over raw speed: the
polynomials involved have degree at most ``n - k`` (a handful of
coefficients) and are built once per code.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.erasure.gf import GF256


def normalize(p: Sequence[int]) -> List[int]:
    """Strip leading zero coefficients; the zero polynomial becomes ``[0]``."""
    p = list(p)
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:] if p else [0]


def is_zero(p: Sequence[int]) -> bool:
    """True if ``p`` is the zero polynomial."""
    return all(c == 0 for c in p)


def degree(p: Sequence[int]) -> int:
    """Degree of ``p``; the zero polynomial has degree -1."""
    p = normalize(p)
    if is_zero(p):
        return -1
    return len(p) - 1






def mul(field: GF256, p: Sequence[int], q: Sequence[int]) -> List[int]:
    """Product of two polynomials."""
    p, q = normalize(p), normalize(q)
    if is_zero(p) or is_zero(q):
        return [0]
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b == 0:
                continue
            out[i + j] ^= field.mul(a, b)
    return normalize(out)


def divmod_poly(
    field: GF256, dividend: Sequence[int], divisor: Sequence[int]
) -> tuple[List[int], List[int]]:
    """Polynomial long division: returns ``(quotient, remainder)``."""
    dividend = normalize(dividend)
    divisor = normalize(divisor)
    if is_zero(divisor):
        raise ZeroDivisionError("polynomial division by zero")
    if degree(dividend) < degree(divisor):
        return [0], list(dividend)
    out = list(dividend)
    divisor_lead_inv = field.inv(divisor[0])
    deg_div = len(divisor) - 1
    quotient_len = len(dividend) - deg_div
    for i in range(quotient_len):
        coef = out[i]
        if coef == 0:
            continue
        factor = field.mul(coef, divisor_lead_inv)
        out[i] = factor
        for j in range(1, len(divisor)):
            out[i + j] ^= field.mul(divisor[j], factor)
    quotient = out[:quotient_len]
    remainder = out[quotient_len:]
    return normalize(quotient), normalize(remainder)


def mod(field: GF256, dividend: Sequence[int], divisor: Sequence[int]) -> List[int]:
    """Remainder of polynomial long division."""
    return divmod_poly(field, dividend, divisor)[1]


def from_roots(field: GF256, roots: Sequence[int]) -> List[int]:
    """The monic polynomial with the given roots: prod (x - r)."""
    p: List[int] = [1]
    for r in roots:
        p = mul(field, p, [1, r])  # (x - r) == (x + r) in characteristic 2
    return p
