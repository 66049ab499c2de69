"""Exact integer primitives shared by the other modules.

Everything here is pure and exact on Python ints: binomials, lcm(1..k)
and the scaled harmonic prefixes that every power sum is read from.
"""
from __future__ import annotations

import math
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


def harmonic_prefixes(p: int, lo: int, hi: int) -> tuple[int, list[int]]:
    """Scaled harmonic prefixes: (L, [L^p H^(p)_k for k = lo..hi]).

    H^(p)_k = sum_{t=1}^{k} t^{-p} and L = lcm(1, ..., hi), so each term
    (L/t)^p is an integer and the prefixes cost hi integer additions,
    with no gcds.  Only the window lo..hi is kept.  This is the one
    power-sum kernel: partial fractions, zeta-form constants and the
    partial-sum identity all read it.
    """
    if not 0 <= lo <= hi:
        raise ValueError("harmonic_prefixes needs 0 <= lo <= hi")
    L = lcm_upto(hi) if hi else 1
    acc = 0
    for t in range(1, lo + 1):
        acc += (L // t) ** p
    row = [acc]
    for t in range(lo + 1, hi + 1):
        acc += (L // t) ** p
        row.append(acc)
    return L, row
