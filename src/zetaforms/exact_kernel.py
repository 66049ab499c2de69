"""Exact integer primitives shared by the other modules.

Everything here is pure and exact on Python ints: binomials, lcm(1..k),
the scaled harmonic prefixes that every power sum is read from, and the
one fraction-free elimination that every rank, row selection and
determinant is read from.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _primes_upto(k: int) -> list[int]:
    if k < 2:
        return []
    sieve = bytearray([1]) * (k + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(k) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(range(p * p, k + 1, p)))
    return [i for i, v in enumerate(sieve) if v]


@lru_cache(maxsize=64)
def lcm_upto(k: int) -> int:
    """d_k = lcm(1, ..., k), via the largest prime power <= k per prime.

    Builds the product over primes directly instead of folding pairwise
    lcms; that keeps it usable up to k ~ 10^6.
    """
    if k < 1:
        raise ValueError("lcm_upto needs k >= 1")
    out = 1
    for p in _primes_upto(k):
        pe = p
        while pe * p <= k:
            pe *= p
        out *= pe
    return out


def harmonic_prefixes(orders: range, lo: int, hi: int) -> tuple[int, list[list[int]]]:
    """Scaled harmonic prefixes: (L, rows), rows[s] = [L^p H^(p)_k for
    k = lo..hi] for the s-th of the consecutive orders p.

    H^(p)_k = sum_{t=1}^{k} t^{-p} and L = lcm(1, ..., hi), so each term
    (L/t)^p is an integer and the prefixes cost integer additions, with
    no gcds; L/t is formed once per t and raised through the orders by
    multiplication.  Only the window lo..hi is kept.  This is the one
    power-sum kernel: partial fractions, zeta-form constants and the
    partial-sum identity all read it.
    """
    if not 0 <= lo <= hi or not orders or orders.step != 1:
        raise ValueError("harmonic_prefixes needs 0 <= lo <= hi and consecutive orders")
    L = lcm_upto(hi) if hi else 1
    acc = [0] * len(orders)
    rows: list[list[int]] = [[] for _ in orders]
    for t in range(hi + 1):
        if t:
            q = L // t
            term = q ** orders.start
            acc[0] += term
            for s in range(1, len(acc)):
                term *= q
                acc[s] += term
        if t >= lo:
            for row, v in zip(rows, acc):
                row.append(v)
    return L, rows


@dataclass(frozen=True)
class Echelon:
    """Reduced row echelon form of an integer matrix, kept on integers.

    ``rows[:rank]`` divided by ``scale`` is the reduced row echelon form,
    with pivot columns ``pivots``; the rows below ``rank`` are zero.
    ``det`` is the signed determinant, 0 unless the matrix is square and
    of full rank.
    """

    rank: int
    pivots: tuple[int, ...]
    rows: list[list[int]]
    scale: int
    det: int


def echelon(rows: list[list[int]]) -> Echelon:
    """Fraction-free Gauss-Jordan elimination, after Bareiss (1968), on a copy.

    Each step with pivot p replaces every other row by
    (p * row - row[c] * pivot_row) / scale and then sets scale = p.  The
    divisions are exact, since every entry stays a minor of the input, and
    every pivot row ends with the same pivot value ``scale``.  Pivots are
    the first nonzero entry of their column in row order, so the pivot
    columns are the greedy in-order choice of independent columns.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    if any(len(row) != ncols for row in m):
        raise ValueError("echelon needs rows of equal length")
    pivots: list[int] = []
    scale, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            # a row with f = 0 is only rescaled by p / scale
            if i == r or not f and (p == scale or not any(row)):
                continue
            m[i] = [(p * x - f * y) // scale for x, y in zip(row, prow)]
        pivots.append(c)
        scale = p
    rank = len(pivots)
    det = sign * scale if rank == nrows == ncols else 0
    return Echelon(rank, tuple(pivots), m, scale, det)
