"""Exact big-rational primitives shared by every other module.

Everything here is pure and exact: Python ints for big integers,
``fractions.Fraction`` for rationals (always reduced, denominator > 0 by
construction), and a small dense polynomial type over the rationals.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from mpmath import mp, mpf


def pochhammer(alpha, k: int) -> Fraction:
    """Rising factorial alpha (alpha+1) ... (alpha+k-1); 1 for k = 0."""
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    alpha = Fraction(alpha)
    out = Fraction(1)
    for i in range(k):
        out *= alpha + i
    return out


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


def power_sum(i: int, m: int) -> Fraction:
    """H^(i)_m = sum_{t=1}^{m} t^{-i} as an exact rational; 0 for m = 0."""
    if m < 0:
        raise ValueError("power_sum needs m >= 0")
    L, row = harmonic_prefixes(i, m, m)
    return Fraction(row[0], L ** i)


class QPolynomial:
    """Dense univariate polynomial over Fraction, lowest degree first.

    Coefficients are kept canonical (no trailing zeros).  The zero
    polynomial has degree -1, used as the distinguished sentinel.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls([])

    @classmethod
    def from_roots(cls, scale, roots: Sequence[tuple[Fraction | int, int]]) -> "QPolynomial":
        """scale * prod (X - root)^multiplicity."""
        out = cls([scale])
        for root, mult in roots:
            out = out * cls([-Fraction(root), 1]) ** mult
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if not self or not other:
            return QPolynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return QPolynomial(out)

    def __pow__(self, e: int) -> "QPolynomial":
        if e < 0:
            raise ValueError("negative power")
        out = QPolynomial([1])
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def scale(self, c) -> "QPolynomial":
        c = Fraction(c)
        return QPolynomial([c * x for x in self.coeffs])

    def derivative(self) -> "QPolynomial":
        return QPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, c) -> "QPolynomial":
        """Taylor shift: returns q with q(X) = p(X + c)."""
        c = Fraction(c)
        n = len(self.coeffs)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            pw = Fraction(1)
            for j in range(i, -1, -1):
                out[j] += a * binomial(i, i - j) * pw
                pw *= c
        return QPolynomial(out)

    def eval_exact(self, x) -> Fraction:
        x = Fraction(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __repr__(self):
        return f"QPolynomial({list(self.coeffs)!r})"


def poly_eval_precise(p: QPolynomial, x, dps: int | None = None):
    """Horner evaluation of p at a high-precision real/complex point.

    Runs at the caller's working precision unless ``dps`` is given.  Each
    coefficient is converted exactly (num/den division is the only
    rounding), so the result is accurate to working precision up to the
    usual Horner error, well below the caller's guard digits.
    """
    def _run():
        acc = mpf(0)
        for c in reversed(p.coeffs):
            cc = mpf(c.numerator) / c.denominator
            acc = acc * x + cc
        return acc

    if dps is None:
        return _run()
    with mp.workdps(dps):
        return _run()
